package world

import (
	"encoding/binary"
	"fmt"
)

// The per-block codec the product shipped until the layer-aware rewrite,
// kept verbatim as the reference the differential tests and the fuzz
// target hold EncodeAppend and DecodeChunkInto to: one generic
// writeBits/readBits call per block, no knowledge of layers. It is
// exported from this _test file for the external test package, which can
// import the terrain generators (package world's own tests cannot).
//
// One known defect is preserved with it: the encoder's 0xffff "no memo
// yet" sentinel is also a legal block key, so a chunk whose first block
// is {ID: 255, Data: 255} is mis-encoded. EncodeAppend primes its memo
// from the first block instead; TestEncodeFirstBlockAllOnes covers it.

// OracleEncode is the reference encoder.
func OracleEncode(c *Chunk) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint32(dst, chunkMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(c.Pos.X)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(c.Pos.Z)))
	dst = binary.LittleEndian.AppendUint16(dst, 0) // palLen, patched below
	palOff := len(dst)
	lastKey := uint16(0xffff)
	for i := 0; i < BlocksPerChunk; i++ {
		k := oracleAt(c, i).key()
		if k == lastKey {
			continue
		}
		found := false
		for j := palOff; j < len(dst); j += 2 {
			if binary.LittleEndian.Uint16(dst[j:]) == k {
				found = true
				break
			}
		}
		if !found {
			dst = binary.LittleEndian.AppendUint16(dst, k)
		}
		lastKey = k
	}
	palLen := (len(dst) - palOff) / 2
	binary.LittleEndian.PutUint16(dst[12:], uint16(palLen))
	bits := bitsFor(palLen)
	dst = append(dst, byte(bits))
	dataLen := (BlocksPerChunk*int(bits) + 7) / 8
	dataOff := len(dst)
	dst = append(dst, make([]byte, dataLen)...)
	data := dst[dataOff:]
	lastKey = 0xffff
	lastIdx := uint32(0)
	var bitPos uint
	for i := 0; i < BlocksPerChunk; i++ {
		k := oracleAt(c, i).key()
		if k != lastKey {
			for j := 0; j < palLen; j++ {
				if binary.LittleEndian.Uint16(dst[palOff+2*j:]) == k {
					lastKey, lastIdx = k, uint32(j)
					break
				}
			}
		}
		writeBits(data, bitPos, bits, lastIdx)
		bitPos += bits
	}
	return dst
}

// OracleDecodeInto is the reference decoder.
func OracleDecodeInto(c *Chunk, buf []byte) error {
	if len(buf) < 15 {
		return fmt.Errorf("%w: truncated header (%d bytes)", ErrBadChunkEncoding, len(buf))
	}
	if binary.LittleEndian.Uint32(buf) != chunkMagic {
		return fmt.Errorf("%w: bad magic", ErrBadChunkEncoding)
	}
	pos := ChunkPos{
		X: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		Z: int(int32(binary.LittleEndian.Uint32(buf[8:]))),
	}
	palLen := int(binary.LittleEndian.Uint16(buf[12:]))
	if palLen == 0 {
		return fmt.Errorf("%w: empty palette", ErrBadChunkEncoding)
	}
	off := 14
	if len(buf) < off+2*palLen+1 {
		return fmt.Errorf("%w: truncated palette", ErrBadChunkEncoding)
	}
	palette := make([]Block, palLen)
	for i := range palette {
		palette[i] = blockFromKey(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
	}
	bits := uint(buf[off])
	off++
	if bits == 0 || bits > 16 {
		return fmt.Errorf("%w: bad index width %d", ErrBadChunkEncoding, bits)
	}
	dataLen := (BlocksPerChunk*int(bits) + 7) / 8
	if len(buf) < off+dataLen {
		return fmt.Errorf("%w: truncated block data", ErrBadChunkEncoding)
	}
	data := buf[off : off+dataLen]
	c.Pos = pos
	c.Version = 0
	c.GenWork = 0
	var bitPos uint
	for i := 0; i < BlocksPerChunk; i++ {
		idx := readBits(data, bitPos, bits)
		bitPos += bits
		if int(idx) >= palLen {
			return fmt.Errorf("%w: palette index %d out of range", ErrBadChunkEncoding, idx)
		}
		c.Set(i%ChunkSizeX, i/layerBlocks, i/ChunkSizeX%ChunkSizeZ, palette[idx])
	}
	c.Version = 0
	return nil
}

// oracleAt is the i-th block in the format's (y, z, x) order. The oracle
// reads and writes a chunk through At and Set only: it knows nothing of how
// a Chunk stores its layers.
func oracleAt(c *Chunk, i int) Block {
	return c.At(i%ChunkSizeX, i/layerBlocks, i/ChunkSizeX%ChunkSizeZ)
}

// writeBits writes the low `bits` bits of v at bit offset pos. Values span
// at most three bytes (bits ≤ 16), written little-endian within the byte
// stream.
func writeBits(data []byte, pos, bits uint, v uint32) {
	w := uint32(v) << (pos % 8)
	i := pos / 8
	data[i] |= byte(w)
	if bits+pos%8 > 8 {
		data[i+1] |= byte(w >> 8)
	}
	if bits+pos%8 > 16 {
		data[i+2] |= byte(w >> 16)
	}
}

// readBits reads `bits` bits at bit offset pos.
func readBits(data []byte, pos, bits uint) uint32 {
	i := pos / 8
	var v uint32 = uint32(data[i])
	if i+1 < uint(len(data)) {
		v |= uint32(data[i+1]) << 8
	}
	if i+2 < uint(len(data)) {
		v |= uint32(data[i+2]) << 16
	}
	return (v >> (pos % 8)) & ((1 << bits) - 1)
}
