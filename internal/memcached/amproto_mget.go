package memcached

import (
	"encoding/binary"

	"repro/internal/ucr"
)

// Multi-get over UCR: one AM 1 carries the whole key batch, one AM 2
// returns every found item with the values concatenated as the AM data.
// The paper's §V notes mget follows from the same set/get principles —
// and it does: a small batch rides the eager path in one transaction,
// while a batch with large aggregate value size is pulled by the client
// with a single RDMA read.
const (
	AMMGet      uint8 = 0x15
	AMMGetReply uint8 = 0x23
	// AMMGetRetry answers a multi-get that arrived on an unreliable (UD)
	// endpoint whose aggregate reply does not fit one datagram. The reply
	// carries no payload (MGetReply has no status field and its wire
	// format is frozen); the client reports a server error.
	AMMGetRetry uint8 = 0x26
)

// MGetReq is the AM 1 header for a multi-get.
type MGetReq struct {
	ReplyCtr ucr.CounterID
	Keys     []string
}

// EncodeMGetReq packs the header: replyCtr(8) nkeys(2) {klen(2) key}*.
func EncodeMGetReq(r MGetReq) []byte {
	n := 8 + 2
	for _, k := range r.Keys {
		n += 2 + len(k)
	}
	b := make([]byte, n)
	le := binary.LittleEndian
	le.PutUint64(b, uint64(r.ReplyCtr))
	le.PutUint16(b[8:], uint16(len(r.Keys)))
	off := 10
	for _, k := range r.Keys {
		le.PutUint16(b[off:], uint16(len(k)))
		off += 2
		off += copy(b[off:], k)
	}
	return b
}

// DecodeMGetReq unpacks the header.
func DecodeMGetReq(b []byte) (MGetReq, error) {
	if len(b) < 10 {
		return MGetReq{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	r := MGetReq{ReplyCtr: ucr.CounterID(le.Uint64(b))}
	nkeys := int(le.Uint16(b[8:]))
	off := 10
	r.Keys = make([]string, 0, nkeys)
	for i := 0; i < nkeys; i++ {
		if off+2 > len(b) {
			return MGetReq{}, ErrShortAMHeader
		}
		kl := int(le.Uint16(b[off:]))
		off += 2
		if off+kl > len(b) {
			return MGetReq{}, ErrShortAMHeader
		}
		r.Keys = append(r.Keys, string(b[off:off+kl]))
		off += kl
	}
	return r, nil
}

// AppendMGetReq packs the header onto dst.
func AppendMGetReq(dst []byte, ctr ucr.CounterID, keys []string) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(ctr))
	dst = le.AppendUint16(dst, uint16(len(keys)))
	for _, k := range keys {
		dst = le.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
	}
	return dst
}

// MGetKeyCursor walks an encoded multi-get batch in place: each key it
// yields aliases the wire buffer, so the server can look keys up
// straight out of the receive buffer.
type MGetKeyCursor struct {
	b    []byte
	off  int
	n, i int
}

// NewMGetKeyCursor opens a cursor over an encoded MGetReq.
func NewMGetKeyCursor(b []byte) (ucr.CounterID, MGetKeyCursor, error) {
	if len(b) < 10 {
		return 0, MGetKeyCursor{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	return ucr.CounterID(le.Uint64(b)), MGetKeyCursor{
		b: b, off: 10, n: int(le.Uint16(b[8:])),
	}, nil
}

// Len reports the batch's key count.
func (c *MGetKeyCursor) Len() int { return c.n }

// Next yields the next key, or ok=false at the end (or on truncation).
func (c *MGetKeyCursor) Next() (key []byte, ok bool) {
	if c.i >= c.n || c.off+2 > len(c.b) {
		return nil, false
	}
	kl := int(binary.LittleEndian.Uint16(c.b[c.off:]))
	c.off += 2
	if c.off+kl > len(c.b) {
		return nil, false
	}
	key = c.b[c.off : c.off+kl]
	c.off += kl
	c.i++
	return key, true
}

// MGetItem describes one found item in a multi-get reply; its value is
// a slice of the reply's concatenated data block.
type MGetItem struct {
	Key      string
	Flags    uint32
	CAS      uint64
	ValueLen int
}

// MGetReply is the AM 2 header: the per-item metadata; the values are
// the AM data, concatenated in item order.
type MGetReply struct {
	Items []MGetItem
}

// EncodeMGetReply packs the header: nitems(2) {klen(2) flags(4) cas(8)
// vlen(4) key}*.
func EncodeMGetReply(r MGetReply) []byte {
	n := 2
	for _, it := range r.Items {
		n += 2 + 4 + 8 + 4 + len(it.Key)
	}
	b := make([]byte, n)
	le := binary.LittleEndian
	le.PutUint16(b, uint16(len(r.Items)))
	off := 2
	for _, it := range r.Items {
		le.PutUint16(b[off:], uint16(len(it.Key)))
		le.PutUint32(b[off+2:], it.Flags)
		le.PutUint64(b[off+6:], it.CAS)
		le.PutUint32(b[off+14:], uint32(it.ValueLen))
		off += 18
		off += copy(b[off:], it.Key)
	}
	return b
}

// BeginMGetReply starts an append-encoded reply header in dst with a
// zero item count; AppendMGetReplyItem adds items and FinishMGetReply
// patches the count, so a server can build the header in one pass
// without knowing how many keys will hit.
func BeginMGetReply(dst []byte) []byte {
	return append(dst, 0, 0)
}

// AppendMGetReplyItem packs one found item onto an open reply header.
// key aliases wire or slab memory; it is copied into dst here.
func AppendMGetReplyItem(dst []byte, key []byte, flags uint32, cas uint64, valueLen int) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint16(dst, uint16(len(key)))
	dst = le.AppendUint32(dst, flags)
	dst = le.AppendUint64(dst, cas)
	dst = le.AppendUint32(dst, uint32(valueLen))
	return append(dst, key...)
}

// FinishMGetReply patches the item count into a header started at
// start (the offset BeginMGetReply was called at).
func FinishMGetReply(b []byte, start, nitems int) {
	binary.LittleEndian.PutUint16(b[start:], uint16(nitems))
}

// MGetReplyCursor walks an encoded multi-get reply header in place; the
// keys it yields alias the wire buffer.
type MGetReplyCursor struct {
	b    []byte
	off  int
	n, i int
}

// NewMGetReplyCursor opens a cursor over an encoded MGetReply header.
func NewMGetReplyCursor(b []byte) (MGetReplyCursor, error) {
	if len(b) < 2 {
		return MGetReplyCursor{}, ErrShortAMHeader
	}
	return MGetReplyCursor{b: b, off: 2, n: int(binary.LittleEndian.Uint16(b))}, nil
}

// Len reports the reply's item count.
func (c *MGetReplyCursor) Len() int { return c.n }

// Next yields the next item's metadata, or ok=false at the end.
func (c *MGetReplyCursor) Next() (key []byte, flags uint32, cas uint64, valueLen int, ok bool) {
	if c.i >= c.n || c.off+18 > len(c.b) {
		return nil, 0, 0, 0, false
	}
	le := binary.LittleEndian
	kl := int(le.Uint16(c.b[c.off:]))
	flags = le.Uint32(c.b[c.off+2:])
	cas = le.Uint64(c.b[c.off+6:])
	valueLen = int(le.Uint32(c.b[c.off+14:]))
	c.off += 18
	if c.off+kl > len(c.b) {
		return nil, 0, 0, 0, false
	}
	key = c.b[c.off : c.off+kl]
	c.off += kl
	c.i++
	return key, flags, cas, valueLen, true
}

// DecodeMGetReply unpacks the header.
func DecodeMGetReply(b []byte) (MGetReply, error) {
	if len(b) < 2 {
		return MGetReply{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	nitems := int(le.Uint16(b))
	off := 2
	r := MGetReply{Items: make([]MGetItem, 0, nitems)}
	for i := 0; i < nitems; i++ {
		if off+18 > len(b) {
			return MGetReply{}, ErrShortAMHeader
		}
		it := MGetItem{
			Flags:    le.Uint32(b[off+2:]),
			CAS:      le.Uint64(b[off+6:]),
			ValueLen: int(le.Uint32(b[off+14:])),
		}
		kl := int(le.Uint16(b[off:]))
		off += 18
		if off+kl > len(b) {
			return MGetReply{}, ErrShortAMHeader
		}
		it.Key = string(b[off : off+kl])
		off += kl
		r.Items = append(r.Items, it)
	}
	return r, nil
}
