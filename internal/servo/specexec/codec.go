package specexec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"servo/internal/sc"
)

// Wire format between the speculative execution unit and the remote
// simulation function. The request carries the construct's full layout and
// state plus the logical timestamp (paper §III-C: "we include in the
// request a logical timestamp indicating when a player last modified the
// simulated construct"); the reply echoes the timestamp so stale replies
// can be discarded.

// Request asks the simulation function to advance a construct.
type Request struct {
	ConstructID uint64
	Version     uint64 // logical modification timestamp
	BaseTick    uint64 // game tick of the request's base state
	Steps       uint32
	DetectLoops bool
	Layout      []byte // sc.EncodeLayout of the base state
}

// Reply carries the speculative state sequence back to the server.
type Reply struct {
	ConstructID uint64
	Version     uint64
	BaseTick    uint64
	States      []sc.StateVector
	Loop        *sc.LoopInfo
}

var errTruncated = errors.New("specexec: truncated message")

// requestHeaderLen is the size of a request before its layout.
const requestHeaderLen = 29

// EncodeRequest serialises a request.
func EncodeRequest(r Request) []byte {
	out := appendRequestHeader(make([]byte, 0, requestHeaderLen+len(r.Layout)), r)
	return append(out, r.Layout...)
}

// appendRequestHeader appends every field of r but its layout, which
// follows it on the wire.
func appendRequestHeader(out []byte, r Request) []byte {
	out = binary.LittleEndian.AppendUint64(out, r.ConstructID)
	out = binary.LittleEndian.AppendUint64(out, r.Version)
	out = binary.LittleEndian.AppendUint64(out, r.BaseTick)
	out = binary.LittleEndian.AppendUint32(out, r.Steps)
	var fl byte
	if r.DetectLoops {
		fl = 1
	}
	return append(out, fl)
}

// DecodeRequest parses a request.
func DecodeRequest(buf []byte) (Request, error) {
	if len(buf) < requestHeaderLen {
		return Request{}, errTruncated
	}
	return Request{
		ConstructID: binary.LittleEndian.Uint64(buf),
		Version:     binary.LittleEndian.Uint64(buf[8:]),
		BaseTick:    binary.LittleEndian.Uint64(buf[16:]),
		Steps:       binary.LittleEndian.Uint32(buf[24:]),
		DetectLoops: buf[28] == 1,
		Layout:      buf[requestHeaderLen:],
	}, nil
}

// EncodeReply serialises a reply.
func EncodeReply(r Reply) []byte {
	size := 24 + 9 + 8
	for _, s := range r.States {
		size += 4 + len(s)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, r.ConstructID)
	out = binary.LittleEndian.AppendUint64(out, r.Version)
	out = binary.LittleEndian.AppendUint64(out, r.BaseTick)
	if r.Loop != nil {
		out = append(out, 1)
		out = binary.LittleEndian.AppendUint32(out, uint32(r.Loop.EntryIndex))
		out = binary.LittleEndian.AppendUint32(out, uint32(r.Loop.Period))
	} else {
		out = append(out, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.States)))
	for _, s := range r.States {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// DecodeReply parses a reply.
func DecodeReply(buf []byte) (Reply, error) {
	if len(buf) < 37 {
		return Reply{}, errTruncated
	}
	r := Reply{
		ConstructID: binary.LittleEndian.Uint64(buf),
		Version:     binary.LittleEndian.Uint64(buf[8:]),
		BaseTick:    binary.LittleEndian.Uint64(buf[16:]),
	}
	off := 24
	if buf[off] == 1 {
		r.Loop = &sc.LoopInfo{
			EntryIndex: int(binary.LittleEndian.Uint32(buf[off+1:])),
			Period:     int(binary.LittleEndian.Uint32(buf[off+5:])),
		}
		if r.Loop.Period <= 0 {
			return Reply{}, fmt.Errorf("specexec: bad loop period %d", r.Loop.Period)
		}
	}
	off += 9
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	// Every state costs at least its 4-byte length prefix, so a count the
	// remaining bytes cannot hold is refused before it sizes an allocation.
	if n > (len(buf)-off)/4 {
		return Reply{}, errTruncated
	}
	r.States = make([]sc.StateVector, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < off+4 {
			return Reply{}, errTruncated
		}
		l := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if len(buf) < off+l {
			return Reply{}, errTruncated
		}
		r.States = append(r.States, sc.StateVector(buf[off:off+l]))
		off += l
	}
	// A loop is the tail of the states: replay maps a tick past the last
	// state into [EntryIndex, EntryIndex+Period), which must end the buffer
	// (sc.Simulate truncates it there).
	if r.Loop != nil && r.Loop.EntryIndex+r.Loop.Period != len(r.States) {
		return Reply{}, fmt.Errorf("specexec: loop [%d, %d+%d) does not end the %d states",
			r.Loop.EntryIndex, r.Loop.EntryIndex, r.Loop.Period, len(r.States))
	}
	return r, nil
}

// Handler is the serverless simulation function body (paper §III-C): it
// decodes the construct, simulates the requested number of steps with loop
// detection, and returns the speculative state sequence. Deploy it on a
// faas.Platform under any name and point the Manager at it.
func Handler(payload []byte) ([]byte, int) {
	req, err := DecodeRequest(payload)
	if err != nil {
		return nil, 1
	}
	c, err := sc.DecodeLayout(req.Layout)
	if err != nil {
		return nil, 1
	}
	res := sc.Simulate(c, int(req.Steps), req.DetectLoops)
	reply := Reply{
		ConstructID: req.ConstructID,
		Version:     req.Version,
		BaseTick:    req.BaseTick,
		States:      res.States,
		Loop:        res.Loop,
	}
	return EncodeReply(reply), res.WorkUnits
}
