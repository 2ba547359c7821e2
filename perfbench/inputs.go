package main

import (
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/workload"
)

// rng is splitmix64: tiny, seedable, and the same on every platform, so
// one seed always yields the same requests.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix derives an independent value for item i of a seeded sequence, so
// per-item choices do not depend on the order callers ask for them.
func mix(seed, i uint64) uint64 {
	r := rng{seed ^ (i+1)*0xd1b54a32d192ed03}
	return r.next()
}

// sentence is one request sentence plus the English lattice it was
// drawn from (the lattice rung of the traced run replays it).
type sentence struct {
	words []string
	lat   [][]string
}

func (s sentence) key() string { return strings.Join(s.words, " ") }

// drawSentence picks one path through a fresh n-slot English lattice:
// each slot keeps its grammatical word or takes one of its confusions,
// so the draws mix accepted and rejected sentences.
func drawSentence(r *rng, n int) sentence {
	lat := workload.EnglishLattice(n, 3, r.next())
	words := make([]string, n)
	for i, slot := range lat {
		words[i] = slot[r.intn(len(slot))]
	}
	return sentence{words: words, lat: lat}
}

// sentenceTable hands out distinct sentences by index, generating them
// lazily in index order. The sequence depends only on the seed, not on
// which caller asks first. Sentence i has length minN + i mod span: the
// seed picks the words, while every seed gets the same mix of lengths,
// which is what the parse cost mostly depends on.
type sentenceTable struct {
	mu         sync.Mutex
	r          rng
	minN, span int
	seen       map[string]bool
	sents      []sentence
}

func newSentenceTable(seed uint64, minN, maxN int) *sentenceTable {
	return &sentenceTable{r: rng{seed}, minN: minN, span: maxN - minN + 1, seen: make(map[string]bool)}
}

func (t *sentenceTable) get(i int) sentence {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.sents) <= i {
		s := drawSentence(&t.r, t.minN+len(t.sents)%t.span)
		if k := s.key(); !t.seen[k] {
			t.seen[k] = true
			t.sents = append(t.sents, s)
		}
	}
	return t.sents[i]
}

// zipf draws ranks 0..n-1 with P(k) ∝ (k+1)^-s by inverting the CDF at a
// per-index hash, so draw i is fixed by the seed alone.
type zipf struct {
	seed uint64
	cdf  []float64
}

func newZipf(seed uint64, n int, s float64) *zipf {
	z := &zipf{seed: seed, cdf: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) draw(i int) int {
	u := float64(mix(z.seed, uint64(i))>>11) / (1 << 53)
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}
