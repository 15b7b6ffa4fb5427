package blob

// Objects returns the store's object map itself, so a test can audit what
// the store holds without paying modelled latency or moving its meters.
func (s *Store) Objects() map[string][]byte { return s.objects }
