package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/memcached"
)

// keyspace is one workload's inputs: key names, a fixed value size per
// key, and a Zipf popularity order over a seeded permutation of the
// keys. Everything is derived from the seed, so the same seed gives the
// same keys, sizes and hot set.
//
// Sizes follow a fixed low-discrepancy sequence over popularity rank, so
// the hot set holds the same even spread of sizes under every seed: the
// seed picks which keys are hot and the op sequence, not how large the
// hot values are, and results move less from seed to seed.
//
// The generator is the benchmark's own, not internal/bench's: a change
// to the code under test must not change the inputs it is measured on.
type keyspace struct {
	keys  []string
	sizes []int
	// byRank[r] is the key index with popularity rank r (0 = hottest).
	byRank []int
	cdf    []float64
}

func newKeyspace(seed uint64, n, minSize, maxSize int, zipfS float64) *keyspace {
	rng := rand.New(rand.NewPCG(seed, 0x6b657973))
	ks := &keyspace{
		keys:   make([]string, n),
		sizes:  make([]int, n),
		byRank: rng.Perm(n),
		cdf:    make([]float64, n),
	}
	for i := range ks.keys {
		ks.keys[i] = fmt.Sprintf("k%06d", i)
	}
	const phi = 0.6180339887498949
	x := 0.5
	for _, k := range ks.byRank {
		ks.sizes[k] = minSize + int(x*float64(maxSize-minSize+1))
		if x += phi; x >= 1 {
			x--
		}
	}
	sum := 0.0
	for r := range ks.cdf {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		ks.cdf[r] = sum
	}
	for r := range ks.cdf {
		ks.cdf[r] /= sum
	}
	return ks
}

// draw picks a key index by Zipf popularity.
func (ks *keyspace) draw(rng *rand.Rand) int {
	return ks.byRank[sort.SearchFloat64s(ks.cdf, rng.Float64())]
}

// hottestFitting lists the hottest keys whose values sum to at most
// budget bytes, coldest first: writing them in that order leaves an LRU
// cache holding the hot set with the hottest keys most recently used,
// which is close to the look-aside loop's steady state.
func (ks *keyspace) hottestFitting(budget int64) []int {
	var out []int
	var used int64
	for _, k := range ks.byRank {
		used += int64(ks.sizes[k] + len(ks.keys[k]) + 64)
		if used > budget {
			break
		}
		out = append(out, k)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// warmKeys lists the keys a look-aside populate writes, in order: for
// every server and every slab class its keys fall in, the hottest such
// key, then hottestFitting(budget). class gives a key's slab class and
// server the server a key routes to.
//
// The first part gives every class a page on every server before
// memory fills. The engine never moves a page from one class to
// another, so a class still without a page when memory fills refuses
// every set with SERVER_ERROR out of memory for the rest of the run
// (slab calcification). The hot set alone leaves that to chance: on a
// few seeds of ipoib-lookaside a thin class at the low end of the size
// range got no key on one server before its memory filled.
func (ks *keyspace) warmKeys(budget int64, class func(k int) int, server func(key string) int) []int {
	type slot struct{ server, class int }
	seen := map[slot]bool{}
	var out []int
	for _, k := range ks.byRank {
		s := slot{server(ks.keys[k]), class(k)}
		if !seen[s] {
			seen[s] = true
			out = append(out, k)
		}
	}
	return append(out, ks.hottestFitting(budget)...)
}

// slabClasses returns each key's slab class in arena: the class that
// fits the key, its value and the engine's fixed per-item header. The
// header is measured by storing probe values into an empty engine, so
// the benchmark follows the engine's layout without copying it.
func (ks *keyspace) slabClasses(arena *memcached.SlabArena) func(k int) int {
	st := memcached.NewStore(memcached.StoreConfig{MemoryLimit: 4 << 20})
	const key = "p"
	classOf := func(size int) int {
		st.Set(key, 0, 0, make([]byte, size), 0)
		for c, n := range st.ItemsPerClass() {
			if n > 0 {
				return c
			}
		}
		panic("perfbench: probe item not stored")
	}
	// The largest value that still fits the smallest class.
	lo, hi := 0, st.Arena().ClassSize(0)
	for lo+1 < hi {
		if mid := (lo + hi) / 2; classOf(mid) == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	header := st.Arena().ClassSize(0) - len(key) - lo
	return func(k int) int {
		c, ok := arena.ClassFor(len(ks.keys[k]) + ks.sizes[k] + header)
		if !ok {
			panic(fmt.Sprintf("perfbench: value of %d bytes too large for the engine", ks.sizes[k]))
		}
		return c
	}
}

// Value layout: [crc32 of the rest, 4 B][key length, 1 B][key]
// [version, 4 B][filler]. The header ties a value to the key it was
// stored under and the checksum to its exact bytes, so a hit that
// returns another key's value, a truncated value or corrupted bytes
// fails checkValue.
const valueHeader = 4 + 1 + 4

// fillValue writes key's value of version ver into buf (its length is
// the value size) and returns buf.
func fillValue(buf []byte, key string, ver uint32) []byte {
	n := copy(buf[5:], key)
	buf[4] = byte(n)
	binary.LittleEndian.PutUint32(buf[5+n:], ver)
	x := uint64(ver)*0x9e3779b97f4a7c15 ^ uint64(len(buf))
	for _, c := range []byte(key) {
		x = x*31 + uint64(c)
	}
	i := 5 + n + 4
	for ; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(x >> (8 * (i & 7)))
	}
	binary.LittleEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	return buf
}

// checkValue reports whether v is an intact value stored under key.
func checkValue(v []byte, key string) bool {
	if len(v) < valueHeader+len(key) || int(v[4]) != len(key) || string(v[5:5+len(key)]) != key {
		return false
	}
	return binary.LittleEndian.Uint32(v) == crc32.ChecksumIEEE(v[4:])
}

// Op kinds in a recorded op stream.
const (
	opGet = iota
	opSet
)

// op is one issued command, kept so the stream can be replayed straight
// into the engine and its text-protocol parser.
type op struct {
	kind uint8
	key  int32
	size int32
}
