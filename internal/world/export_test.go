package world

// Sealed reports whether c is still only the encoding LoadEncoded gave it:
// no block of it has been read or written since.
func Sealed(c *Chunk) bool { return c.sealed }
