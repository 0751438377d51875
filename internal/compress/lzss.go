// Package compress implements an LZSS codec over raw bitstreams: the
// baseline family of configuration-compression techniques the paper's
// related work builds on (Li & Hauck's Virtex configuration
// compression and Pan et al.'s inter-bitstream compression both start
// from LZSS). The VBS experiments compare against it to show how much
// of the redundancy a dictionary coder captures versus the
// architecture-aware virtual coding.
package compress

import (
	"encoding/binary"
	"fmt"
)

// LZSS parameters: a 4 KiB window with 3..18-byte matches, the classic
// configuration used by Storer & Szymanski-derived coders.
const (
	windowBits = 12
	windowSize = 1 << windowBits
	lengthBits = 4
	minMatch   = 3
	maxMatch   = minMatch + (1 << lengthBits) - 1
)

// CompressLZSS encodes data as a flag-bit stream of literals and
// (offset, length) back-references. The output begins with the input
// length as a uvarint so Decompress can size its buffer.
func CompressLZSS(data []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(data)))
	if len(data) == 0 {
		return out
	}

	// Hash chains over 3-byte prefixes.
	const hashSize = 1 << 14
	head := make([]int32, hashSize)
	prev := make([]int32, len(data))
	for i := range head {
		head[i] = -1
	}
	hash := func(i int) uint32 {
		v := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16
		return (v * 2654435761) >> (32 - 14)
	}

	var flags byte
	var nflags int
	var flagPos int
	out = append(out, 0) // first flag byte placeholder
	flagPos = len(out) - 1

	emitFlag := func(isRef bool) {
		if nflags == 8 {
			// Flush the full group and start a new flag byte; the new
			// placeholder must precede this token's payload.
			out[flagPos] = flags
			flags, nflags = 0, 0
			out = append(out, 0)
			flagPos = len(out) - 1
		}
		if isRef {
			flags |= 1 << uint(nflags)
		}
		nflags++
	}

	insert := func(i int) {
		if i+minMatch <= len(data) {
			h := hash(i)
			prev[i] = head[h]
			head[h] = int32(i)
		}
	}

	i := 0
	for i < len(data) {
		bestLen, bestOff := 0, 0
		if i+minMatch <= len(data) {
			limit := i - windowSize
			if limit < 0 {
				limit = 0
			}
			cand := head[hash(i)]
			for tries := 0; cand >= int32(limit) && tries < 32; tries++ {
				j := int(cand)
				maxL := len(data) - i
				if maxL > maxMatch {
					maxL = maxMatch
				}
				l := 0
				for l < maxL && data[j+l] == data[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestOff = l, i-j
				}
				cand = prev[j]
			}
		}
		if bestLen >= minMatch {
			emitFlag(true)
			// 12-bit offset-1, 4-bit length-minMatch packed into 2 bytes.
			token := uint16(bestOff-1)<<lengthBits | uint16(bestLen-minMatch)
			out = append(out, byte(token>>8), byte(token))
			for k := 0; k < bestLen; k++ {
				insert(i + k)
			}
			i += bestLen
		} else {
			emitFlag(false)
			out = append(out, data[i])
			insert(i)
			i++
		}
	}
	out[flagPos] = flags
	return out
}

// DecompressLZSS inverts CompressLZSS.
func DecompressLZSS(data []byte) ([]byte, error) {
	size, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("compress: truncated header")
	}
	if size > 1<<31 {
		return nil, fmt.Errorf("compress: implausible size %d", size)
	}
	out := make([]byte, 0, size)
	pos := n
	var flags byte
	var nflags int
	for uint64(len(out)) < size {
		if nflags == 0 {
			if pos >= len(data) {
				return nil, fmt.Errorf("compress: truncated flags")
			}
			flags = data[pos]
			pos++
			nflags = 8
		}
		isRef := flags&1 == 1
		flags >>= 1
		nflags--
		if isRef {
			if pos+1 >= len(data) {
				return nil, fmt.Errorf("compress: truncated reference")
			}
			token := uint16(data[pos])<<8 | uint16(data[pos+1])
			pos += 2
			off := int(token>>lengthBits) + 1
			length := int(token&(1<<lengthBits-1)) + minMatch
			if off > len(out) {
				return nil, fmt.Errorf("compress: reference %d before start", off)
			}
			for k := 0; k < length; k++ {
				out = append(out, out[len(out)-off])
			}
		} else {
			if pos >= len(data) {
				return nil, fmt.Errorf("compress: truncated literal")
			}
			out = append(out, data[pos])
			pos++
		}
	}
	if uint64(len(out)) != size {
		return nil, fmt.Errorf("compress: decoded %d bytes, want %d", len(out), size)
	}
	return out[:size], nil
}
