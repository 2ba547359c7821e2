package server

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseRequestDecode fuzzes the request-decoding surface of the
// service: any byte sequence that json-decodes into a ParseRequest
// must tokenize (Words) and canonicalize (CacheKey) without panicking,
// deterministically, and with the key structurally embedding the
// grammar key and the exact word sequence. Seed corpus:
// testdata/fuzz/FuzzParseRequestDecode.
func FuzzParseRequestDecode(f *testing.F) {
	f.Add([]byte(`{"grammar":"demo","text":"the program runs"}`))
	f.Add([]byte(`{"grammar":"english","backend":"serial","sentence":["the","dog","runs"],"max_parses":-1}`))
	f.Add([]byte(`{"grammar_source":"(grammar (roles))","backend":"maspar","text":"a b c","pes":1024,"no_filter":true}`))
	f.Add([]byte(`{"backend":"warp9","text":"x"}`))
	f.Add([]byte("{\"text\":\"w\\u001fx y\\tz\",\"timeout_ms\":5,\"no_cache\":true}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ParseRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a request; the handler answers 400 before any of this runs
		}
		words := req.Words()
		k1, err1 := CacheKey(req)
		k2, err2 := CacheKey(req)
		if (err1 == nil) != (err2 == nil) || k1 != k2 {
			t.Fatalf("CacheKey not deterministic: (%q,%v) vs (%q,%v)", k1, err1, k2, err2)
		}
		if _, berr := ParseBackend(req.Backend); (berr == nil) != (err1 == nil) {
			t.Fatalf("CacheKey error disagrees with backend validation: %v vs %v", err1, berr)
		}
		if err1 != nil {
			return
		}
		if !strings.HasPrefix(k1, GrammarKey(req)+"|") {
			t.Fatalf("key %q does not start with grammar key %q", k1, GrammarKey(req))
		}
		if !strings.HasSuffix(k1, "|"+strings.Join(words, "\x1f")) {
			t.Fatalf("key %q does not embed the word sequence %q", k1, words)
		}
	})
}

// sharedFuzzCache persists compiled grammars across FuzzCacheKey
// iterations so the named built-ins compile once per fuzz process.
var sharedFuzzCache = NewCache()

// FuzzCacheKey pins the invariant shard affinity depends on: the
// router-side canonical key (server.CacheKey, which router.AffinityKey
// delegates to and rendezvous-hashes) must agree byte-for-byte with
// the key the server's own request path memoizes under — the grammar
// key as resolved by the grammar cache (Cache.Get) plus the batching
// key and sentence, exactly as serve composes them. If these ever
// drift, repeated sentences hash to one shard but miss its cache.
// Seed corpus: testdata/fuzz/FuzzCacheKey.
func FuzzCacheKey(f *testing.F) {
	f.Add("demo", "", "", "the program runs", "", 0, false, 0, 0)
	f.Add("english", "", "serial", "", "the,dog,runs", -1, true, 3, 0)
	f.Add("", "(grammar (roles (governor)))", "maspar", "a b", "", 5, false, 0, 16384)
	f.Add("no-such-grammar", "", "pram", "x y z", "", 0, false, 1, 64)
	f.Add("demo", "", "warp9", "unknown backend", "", 0, false, 0, 0)
	f.Fuzz(func(t *testing.T, grammar, source, backend, text, sentenceCSV string,
		maxParses int, noFilter bool, iters, pes int) {
		req := ParseRequest{
			Grammar:        grammar,
			GrammarSource:  source,
			Backend:        backend,
			Text:           text,
			MaxParses:      maxParses,
			NoFilter:       noFilter,
			MaxFilterIters: iters,
			PEs:            pes,
		}
		if sentenceCSV != "" {
			req.Sentence = strings.Split(sentenceCSV, ",")
		}
		routerKey, err := CacheKey(req)
		be, berr := ParseBackend(req.Backend)
		if (err == nil) != (berr == nil) {
			t.Fatalf("CacheKey error %v disagrees with backend validation %v", err, berr)
		}
		if err != nil {
			return // both sides reject the request with a 400
		}
		// The server side: serve resolves the grammar key through the
		// grammar cache (Get returns the key even when compilation
		// fails) and composes cfgKeyOf + cacheKeyOf.
		_, gkey, _ := sharedFuzzCache.Get(req.Grammar, req.GrammarSource)
		serverKey := cacheKeyOf(cfgKeyOf(gkey, be, req), req.MaxParses, req.Words())
		if routerKey != serverKey {
			t.Fatalf("router-side and server-side canonical keys drifted:\nrouter: %q\nserver: %q", routerKey, serverKey)
		}
	})
}

// FuzzLatticeRequestDecode fuzzes the lattice-request surface: any byte
// sequence that json-decodes into a LatticeRequest must build (or
// cleanly reject) a lattice, produce a deterministic routing key with
// the documented shape, and survive a marshal round-trip with the same
// key — the invariant lattice affinity (router.RankShards over
// LatticeAffinityKey) depends on. Seed corpus:
// testdata/fuzz/FuzzLatticeRequestDecode.
func FuzzLatticeRequestDecode(f *testing.F) {
	f.Add([]byte(`{"grammar":"english","utterance_id":"utt-7","slots":[[{"word":"the","score":0.9}],[{"word":"dog","score":0.8},{"word":"ball","score":0.4}]]}`))
	f.Add([]byte(`{"grammar":"demo","slots":[[{"word":"the"},{"word":"a"}],[{"word":"program"}],[{"word":"runs","score":1}]],"engine":"pool","backend":"serial","max_paths":4}`))
	f.Add([]byte(`{"grammar_source":"(grammar (roles))","slots":[[{"word":"x"}]],"max_parses":-1,"timeout_ms":5,"no_cache":true}`))
	f.Add([]byte(`{"grammar":"english","slots":[[]]}`))
	f.Add([]byte(`{"grammar":"english","utterance_id":"u|x","slots":[[{"word":"w","score":-1e308}]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req LatticeRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a request; the handler answers 400 before any of this runs
		}
		// Lattice construction never panics; it either builds or rejects.
		l, lerr := buildLattice(req.Slots)
		if (l == nil) == (lerr == nil) {
			t.Fatalf("buildLattice returned lattice=%v err=%v", l != nil, lerr)
		}
		k1 := LatticeAffinityKey(req)
		if k1 != LatticeAffinityKey(req) {
			t.Fatalf("LatticeAffinityKey not deterministic for %+v", req)
		}
		gkey := GrammarKey(ParseRequest{Grammar: req.Grammar, GrammarSource: req.GrammarSource})
		if req.UtteranceID != "" {
			if k1 != "lattice|"+gkey+"|uid|"+req.UtteranceID {
				t.Fatalf("uid key %q does not follow lattice|%s|uid|%s", k1, gkey, req.UtteranceID)
			}
		} else if !strings.HasPrefix(k1, "lattice|"+gkey+"|slots") {
			t.Fatalf("anonymous key %q does not start with lattice|%s|slots", k1, gkey)
		}
		// The key survives a wire round-trip: routing stays stable when a
		// proxy re-encodes the request.
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var again LatticeRequest
		if err := json.Unmarshal(wire, &again); err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if k2 := LatticeAffinityKey(again); k2 != k1 {
			t.Fatalf("affinity key changed across round-trip:\nbefore: %q\nafter:  %q", k1, k2)
		}
	})
}
