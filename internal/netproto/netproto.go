// Package netproto implements the client↔server wire protocol for
// interactive (real-time) play: length-prefixed binary messages over any
// stream transport (TCP in production, net.Pipe in tests).
//
// Servo is a backend architecture: it deliberately does not change the
// client protocol (paper requirement R4), so the same protocol serves the
// baseline and Servo-backed servers.
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"servo/internal/world"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Client → server messages.
const (
	MsgJoin MsgType = iota + 1
	MsgMove
	MsgPlaceBlock
	MsgBreakBlock
	MsgChat
	MsgSetInventory
	MsgPing
)

// Server → client messages.
const (
	MsgWelcome MsgType = iota + 64
	MsgChunkData
	MsgStateUpdate
	MsgChatBroadcast
	MsgPong
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgJoin:
		return "join"
	case MsgMove:
		return "move"
	case MsgPlaceBlock:
		return "place"
	case MsgBreakBlock:
		return "break"
	case MsgChat:
		return "chat"
	case MsgSetInventory:
		return "inventory"
	case MsgPing:
		return "ping"
	case MsgWelcome:
		return "welcome"
	case MsgChunkData:
		return "chunk"
	case MsgStateUpdate:
		return "state"
	case MsgChatBroadcast:
		return "chat-broadcast"
	case MsgPong:
		return "pong"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Message is one decoded protocol message. Fields are populated according
// to Type.
type Message struct {
	Type MsgType

	// MsgJoin / MsgChat / MsgChatBroadcast.
	Name string
	Text string

	// MsgMove.
	DestX, DestZ, Speed float64

	// MsgPlaceBlock / MsgBreakBlock.
	Pos   world.BlockPos
	Block world.Block

	// MsgSetInventory.
	Item uint8

	// MsgPing / MsgPong.
	Nonce uint64

	// MsgWelcome.
	PlayerID int64

	// MsgChunkData: an encoded chunk (world.DecodeChunk).
	ChunkData []byte

	// MsgStateUpdate.
	Tick    uint64
	Avatars []AvatarState
}

// AvatarState is one player's position in a state update.
type AvatarState struct {
	ID   int64
	X, Z float64
}

// avatarWireSize is one AvatarState on the wire: id, x, z.
const avatarWireSize = 24

// MaxMessageSize bounds a single frame (a compressed chunk plus headroom).
const MaxMessageSize = 1 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxMessageSize.
var ErrFrameTooLarge = errors.New("netproto: frame too large")

// Encode serialises the message with its length-prefixed frame header
// into a fresh slice of exactly the frame's size.
func Encode(m Message) []byte { return AppendEncode(nil, m) }

// frameSize is the encoded size of m, length prefix included.
func frameSize(m Message) int {
	n := 4 + 1
	switch m.Type {
	case MsgJoin:
		n += 2 + len(m.Name)
	case MsgMove:
		n += 24
	case MsgPlaceBlock, MsgBreakBlock:
		n += 14
	case MsgChat, MsgChatBroadcast:
		n += 4 + len(m.Name) + len(m.Text)
	case MsgSetInventory:
		n++
	case MsgPing, MsgPong, MsgWelcome:
		n += 8
	case MsgChunkData:
		n += 4 + len(m.ChunkData)
	case MsgStateUpdate:
		n += 12 + avatarWireSize*len(m.Avatars)
	}
	return n
}

// AppendEncode appends m's frame — the 4-byte length, then the body — to
// dst and returns the extended slice. The body is written in place behind
// a reserved length that is patched at the end: one pass, and no
// allocation when dst has room (a dst without room grows once, to fit).
func AppendEncode(dst []byte, m Message) []byte {
	if need := frameSize(m); cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.Type))
	switch m.Type {
	case MsgJoin:
		dst = appendString(dst, m.Name)
	case MsgMove:
		dst = appendF64(dst, m.DestX)
		dst = appendF64(dst, m.DestZ)
		dst = appendF64(dst, m.Speed)
	case MsgPlaceBlock, MsgBreakBlock:
		dst = appendBlockPos(dst, m.Pos)
		dst = append(dst, byte(m.Block.ID), m.Block.Data)
	case MsgChat, MsgChatBroadcast:
		dst = appendString(dst, m.Name)
		dst = appendString(dst, m.Text)
	case MsgSetInventory:
		dst = append(dst, m.Item)
	case MsgPing, MsgPong:
		dst = binary.LittleEndian.AppendUint64(dst, m.Nonce)
	case MsgWelcome:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.PlayerID))
	case MsgChunkData:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.ChunkData)))
		dst = append(dst, m.ChunkData...)
	case MsgStateUpdate:
		dst = binary.LittleEndian.AppendUint64(dst, m.Tick)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Avatars)))
		for _, a := range m.Avatars {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(a.ID))
			dst = appendF64(dst, a.X)
			dst = appendF64(dst, a.Z)
		}
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// Decode parses one message body (without the 4-byte length prefix).
func Decode(body []byte) (Message, error) {
	r := reader{buf: body}
	t, err := r.u8()
	if err != nil {
		return Message{}, err
	}
	m := Message{Type: MsgType(t)}
	switch m.Type {
	case MsgJoin:
		m.Name, err = r.str()
	case MsgMove:
		m.DestX, m.DestZ, m.Speed, err = r.f64x3()
	case MsgPlaceBlock, MsgBreakBlock:
		m.Pos, err = r.blockPos()
		if err == nil {
			var id, data uint8
			if id, err = r.u8(); err == nil {
				data, err = r.u8()
				m.Block = world.Block{ID: world.BlockID(id), Data: data}
			}
		}
	case MsgChat, MsgChatBroadcast:
		if m.Name, err = r.str(); err == nil {
			m.Text, err = r.str()
		}
	case MsgSetInventory:
		m.Item, err = r.u8()
	case MsgPing, MsgPong:
		m.Nonce, err = r.u64()
	case MsgWelcome:
		var v uint64
		v, err = r.u64()
		m.PlayerID = int64(v)
	case MsgChunkData:
		var n uint32
		if n, err = r.u32(); err == nil {
			m.ChunkData, err = r.bytes(int(n))
		}
	case MsgStateUpdate:
		if m.Tick, err = r.u64(); err == nil {
			var n uint32
			if n, err = r.u32(); err == nil {
				// The count is the peer's word; the bytes left in the body
				// are not. Never preallocate past what they can hold.
				if int64(n) > int64(len(r.buf)-r.off)/avatarWireSize {
					return Message{}, errShort
				}
				m.Avatars = make([]AvatarState, 0, n)
				for i := uint32(0); i < n && err == nil; i++ {
					var a AvatarState
					var id uint64
					if id, err = r.u64(); err == nil {
						a.ID = int64(id)
						a.X, a.Z, _, err = r.f64x3dummy()
						m.Avatars = append(m.Avatars, a)
					}
				}
			}
		}
	default:
		return Message{}, fmt.Errorf("netproto: unknown message type %d", t)
	}
	if err != nil {
		return Message{}, err
	}
	return m, nil
}

// Write frames and writes one message.
func Write(w io.Writer, m Message) error {
	_, err := w.Write(Encode(m))
	return err
}

// Reader reads framed messages from a stream.
type Reader struct {
	br *bufio.Reader
	// body is reused across messages: everything Decode returns is copied
	// out of it.
	body []byte
}

// NewReader wraps a stream for framed reads.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64*1024)}
}

// Next reads and decodes the next message, blocking until one arrives.
func (r *Reader) Next() (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.br, lenBuf[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > MaxMessageSize {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(r.body)) < n {
		r.body = make([]byte, n)
	}
	r.body = r.body[:n]
	if _, err := io.ReadFull(r.br, r.body); err != nil {
		return Message{}, err
	}
	return Decode(r.body)
}

// --- encoding helpers --------------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBlockPos(b []byte, p world.BlockPos) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(p.X)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(p.Y)))
	return binary.LittleEndian.AppendUint32(b, uint32(int32(p.Z)))
}

var errShort = errors.New("netproto: truncated message")

type reader struct {
	buf []byte
	off int
}

func (r *reader) take(n int) ([]byte, error) {
	if r.off+n > len(r.buf) {
		return nil, errShort
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *reader) f64x3() (a, b, c float64, err error) {
	if a, err = r.f64(); err != nil {
		return
	}
	if b, err = r.f64(); err != nil {
		return
	}
	c, err = r.f64()
	return
}

// f64x3dummy reads two floats (used by avatar decoding where only X and Z
// are on the wire); the third return keeps call sites symmetrical.
func (r *reader) f64x3dummy() (a, b, c float64, err error) {
	if a, err = r.f64(); err != nil {
		return
	}
	b, err = r.f64()
	return
}

func (r *reader) str() (string, error) {
	lb, err := r.take(2)
	if err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(lb))
	b, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > MaxMessageSize {
		return nil, ErrFrameTooLarge
	}
	b, err := r.take(n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

func (r *reader) blockPos() (world.BlockPos, error) {
	b, err := r.take(12)
	if err != nil {
		return world.BlockPos{}, err
	}
	return world.BlockPos{
		X: int(int32(binary.LittleEndian.Uint32(b))),
		Y: int(int32(binary.LittleEndian.Uint32(b[4:]))),
		Z: int(int32(binary.LittleEndian.Uint32(b[8:]))),
	}, nil
}
