package router

import (
	"hash/fnv"
	"sort"
)

// Rendezvous (highest-random-weight) hashing ranks every shard for
// every key: score(shard, key) = FNV-1a64(shard ‖ 0x00 ‖ key), shards
// ordered by descending score. The top-ranked shard owns the key; the
// rest of the order is the failover sequence. Rendezvous beats a hash
// ring at this fleet size: no virtual-node tuning, perfectly even key
// movement on membership change (only the ejected shard's keys move,
// each to its second-ranked shard), and the full failover order falls
// out of one sort instead of ring walks.

// hrwScore is the rendezvous weight of key on shard. The raw FNV-1a
// sum is pushed through a 64-bit avalanche finalizer (splitmix64's):
// FNV alone mixes a trailing byte through only one multiply, so keys
// differing in their last bytes (…|uid|utt-1 vs …|uid|utt-2) produce
// score deltas that are nearly identical across shards and whole runs
// of consecutive keys rank the fleet in the same order. The finalizer
// turns any 1-bit input difference into ~32 flipped output bits, which
// decorrelates the per-shard scores.
func hrwScore(shard, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(shard))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is splitmix64's finalizer (Stafford variant 13).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RankShards orders shard IDs by descending rendezvous score for key,
// breaking score ties by ID so the order is total and deterministic.
// The input slice is not modified. It is the router's placement, so a
// fleet harness can tell which shard will own a key.
func RankShards(shards []string, key string) []string {
	type scored struct {
		id    string
		score uint64
	}
	ranked := make([]scored, len(shards))
	for i, s := range shards {
		ranked[i] = scored{id: s, score: hrwScore(s, key)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.id
	}
	return out
}
