package memcached

// Checker-validation mutations: deliberately wrong engine/protocol
// behaviour behind build tags, used to prove the memcheck model checker
// actually detects bugs (mutation testing). Every switch defaults to
// false and has no branch cost worth modeling; a tagged build (e.g.
// `go test -tags mut_append_nocas`) flips exactly one of them via an
// init() in the matching mut_*.go file. CI runs the checker once per
// tag and requires a violation each time.
var (
	// mutAppendNoCAS: append/prepend reuse the old item's CAS id
	// instead of drawing a fresh one (breaks CAS sequencing).
	mutAppendNoCAS bool
	// mutGetSkipExpiry: lookups skip the lazy expiry check, serving
	// expired and flushed items as live.
	mutGetSkipExpiry bool
	// mutCasIgnoreID: cas stores without comparing the presented id
	// (stale CAS succeeds).
	mutCasIgnoreID bool
	// mutDeleteNoop: delete reports DELETED but leaves the item linked.
	mutDeleteNoop bool
	// mutAddClobbers: add overwrites a live entry like set.
	mutAddClobbers bool
	// mutProtoDropFlags: the text-protocol parser zeroes the flags field
	// of every storage command (a frontend bug the engine-level model
	// cannot see — caught by the client/server cross-check instead).
	mutProtoDropFlags bool
	// mutOneSidedStale: the one-sided index keeps the old seqlock value
	// when republishing a key, so clients validating an RDMA-read value
	// against the directory accept stale or torn reads (the bug class
	// the casid re-read exists to catch).
	mutOneSidedStale bool
	// mutWrReplyStale: the server answers a window-advertising GET/MGET
	// by RDMA-writing into the PREVIOUS request's window on the same
	// endpoint (the notify AM is unchanged), so the client reads stale
	// slot contents as the value — the stale-slot bug class the
	// per-request window advertisement prevents.
	mutWrReplyStale bool
	// MutDupAck: the client transport keeps a retired reply slot live,
	// so a late duplicate reply (from a timed-out request that was re-sent
	// after its original answer was already on the way) is accepted twice
	// instead of landing in scratch — the dup-suppression bug class of
	// the tagged-counter scheme. Exported because the switch is consulted
	// by the mcclient package, which imports this one; the mutation
	// registry stays here.
	MutDupAck bool

	activeMutations []string
)

// ActiveMutations lists the mutation tags compiled into this binary
// (empty in a normal build).
func ActiveMutations() []string { return activeMutations }
