//go:build mut_dup_ack

package memcached

func init() {
	MutDupAck = true
	activeMutations = append(activeMutations, "mut_dup_ack")
}
