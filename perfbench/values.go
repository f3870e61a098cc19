package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Keys and values are generated from the run's seed alone, so a value read
// back can be checked against the one the benchmark wrote.
//
// key(id) is "key" plus the id as 13 zero-padded decimal digits: 16 bytes
// that sort in id order, so an absent odd id falls between two present even
// ids inside a table file's key range.
//
// A value is laid out as
//
//	[0:8)   id, little endian
//	[8:12)  version (1 = preload, then one per acknowledged put)
//	[12:n-4) payload: a splitmix64 stream seeded by (seed, id, version)
//	[n-4:n) CRC-32 (IEEE) of bytes [0, n-4)
const (
	keyLen       = 16
	valueHeader  = 12
	valueTrailer = 4
	minValueLen  = valueHeader + valueTrailer + 8
)

// appendKey appends key(id) to dst.
func appendKey(dst []byte, id uint64) []byte {
	var digits [13]byte
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i] = byte('0' + id%10)
		id /= 10
	}
	dst = append(dst, "key"...)
	return append(dst, digits[:]...)
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// appendValue appends the n-byte value of (id, version) to dst.
func appendValue(dst []byte, seed int64, id uint64, version uint32, n int) []byte {
	if n < minValueLen {
		n = minValueLen
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, version)
	st := uint64(seed)*0x9e3779b97f4a7c15 ^ id<<20 ^ uint64(version)
	for i := valueHeader; i < n-valueTrailer; i += 8 {
		w := splitmix64(&st)
		for j := 0; j < 8 && i+j < n-valueTrailer; j++ {
			dst = append(dst, byte(w>>(8*j)))
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

var errBadValue = errors.New("value fails its checksum")

// parseValue checks a value's checksum and returns the id and version it
// carries.
func parseValue(v []byte) (id uint64, version uint32, err error) {
	if len(v) < minValueLen {
		return 0, 0, fmt.Errorf("value of %d bytes is shorter than %d", len(v), minValueLen)
	}
	body := v[:len(v)-valueTrailer]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(v[len(v)-valueTrailer:]) {
		return 0, 0, errBadValue
	}
	return binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint32(v[8:]), nil
}

// checkValue verifies that v is exactly the value written for (id, version)
// at length n.
func checkValue(v []byte, seed int64, id uint64, version uint32, n int, scratch []byte) ([]byte, error) {
	scratch = appendValue(scratch[:0], seed, id, version, n)
	if string(scratch) != string(v) {
		gotID, gotVer, err := parseValue(v)
		if err != nil {
			return scratch, fmt.Errorf("id %d v%d: %w", id, version, err)
		}
		return scratch, fmt.Errorf("id %d v%d: read back id %d v%d (%d bytes, want %d)",
			id, version, gotID, gotVer, len(v), len(scratch))
	}
	return scratch, nil
}

// paretoLen is the length of the value of (id, version) in the mixgraph
// workload: Pareto with scale 300 B and shape 4 (mean 400 B), capped at
// 4 KiB. It is a pure function so the length need not be stored.
func paretoLen(seed int64, id uint64, version uint32) int {
	st := uint64(seed)*0xd1b54a32d192ed03 ^ id*0x9e3779b97f4a7c15 ^ uint64(version)<<40
	u := (float64(splitmix64(&st)>>11) + 0.5) / (1 << 53)
	n := int(300 / math.Pow(u, 1.0/4))
	if n > 4096 {
		n = 4096
	}
	return n
}

// zipf draws ranks in [0, n) with P(rank k) proportional to 1/(k+1)^theta,
// using the closed-form generator of Gray et al. ("Quickly generating
// billion-record synthetic databases"), which handles theta < 1.
type zipf struct {
	n                 uint64
	theta, alpha, eta float64
	zetan, halfPow    float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(m uint64) float64 {
		var s float64
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.halfPow = 1 + math.Pow(0.5, theta)
	return z
}

// rank maps a uniform u in [0, 1) to a rank.
func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.halfPow:
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// scramble spreads popular ranks over the id space (and so over shards)
// with an FNV-1a hash, as YCSB's scrambled Zipfian does.
func scramble(rank, n uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= rank & 0xff
		h *= 1099511628211
		rank >>= 8
	}
	return h % n
}
