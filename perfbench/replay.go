package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Replays drive a recorded op stream straight into a fresh engine
// (memcached.Store) and through the text-protocol parser
// (memcached.NewProtoConn on in-memory buffers), with no transport, so
// the engine's and the parser's wall cost per op show apart from the
// layers above them.

// replayMinSeconds is how long each replay runs at least; the stream
// is repeated until then.
const replayMinSeconds = 0.2

type replayResult struct {
	storeNs, protoNs float64
	// evictions and oom are the store replay's counts over its first
	// pass of the stream.
	evictions, oom int64
	ops            int64
}

func replay(ks *keyspace, populate []int, stream []op, memLimit int64) (replayResult, error) {
	var rr replayResult
	if len(stream) == 0 {
		return rr, nil
	}
	buf := make([]byte, 0)
	for _, n := range ks.sizes {
		if n > len(buf) {
			buf = make([]byte, n)
		}
	}
	fresh := func() *memcached.Store {
		st := memcached.NewStore(memcached.StoreConfig{MemoryLimit: memLimit, Stripes: 8})
		for _, k := range populate {
			st.Set(ks.keys[k], 0, 0, buf[:ks.sizes[k]], 0)
		}
		return st
	}

	st := fresh()
	ev0 := st.Stats().Evictions
	var elapsed time.Duration
	var n int64
	for pass := 0; elapsed.Seconds() < replayMinSeconds; pass++ {
		t0 := time.Now()
		for _, o := range stream {
			key := ks.keys[o.key]
			if o.kind == opGet {
				st.Get(key, 0)
			} else if st.Set(key, 0, 0, buf[:o.size], 0) == memcached.OOM && pass == 0 {
				rr.oom++
			}
		}
		elapsed += time.Since(t0)
		n += int64(len(stream))
		if pass == 0 {
			rr.evictions = int64(st.Stats().Evictions - ev0)
		}
	}
	rr.storeNs = float64(elapsed.Nanoseconds()) / float64(n)
	rr.ops = int64(len(stream))

	st = fresh()
	conn := &replayConn{}
	pc := memcached.NewProtoConn(conn, st)
	clk := simnet.NewVClock(0)
	const chunk = 512
	elapsed, n = 0, 0
	var req []byte
	for elapsed.Seconds() < replayMinSeconds {
		for lo := 0; lo < len(stream); lo += chunk {
			cmds := stream[lo:min(lo+chunk, len(stream))]
			req = req[:0]
			for _, o := range cmds {
				req = appendCommand(req, ks.keys[o.key], o, buf)
			}
			conn.in.Reset(req)
			t0 := time.Now()
			for range cmds {
				if _, err := pc.ServeOne(clk); err != nil {
					return rr, fmt.Errorf("protocol replay: %w", err)
				}
			}
			elapsed += time.Since(t0)
			n += int64(len(cmds))
			if conn.bad > 0 {
				return rr, fmt.Errorf("protocol replay: %d malformed replies", conn.bad)
			}
		}
	}
	rr.protoNs = float64(elapsed.Nanoseconds()) / float64(n)
	return rr, nil
}

// appendCommand renders one op as a text-protocol request.
func appendCommand(b []byte, key string, o op, val []byte) []byte {
	if o.kind == opGet {
		b = append(b, "get "...)
		b = append(b, key...)
		return append(b, "\r\n"...)
	}
	b = append(b, "set "...)
	b = append(b, key...)
	b = append(b, " 0 0 "...)
	b = strconv.AppendInt(b, int64(o.size), 10)
	b = append(b, "\r\n"...)
	b = append(b, val[:o.size]...)
	return append(b, "\r\n"...)
}

// replayConn feeds ProtoConn one rendered chunk and counts replies that
// say the request was malformed.
type replayConn struct {
	in  bytes.Reader
	bad int
}

func (c *replayConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *replayConn) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("ERROR")) || bytes.HasPrefix(p, []byte("CLIENT_ERROR")) {
		c.bad++
	}
	return len(p), nil
}
