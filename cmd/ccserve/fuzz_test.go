package main

import (
	"encoding/json"
	"testing"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/problem"
)

// FuzzDecodeSpec feeds arbitrary bodies through the request decoder and
// admission (ColorRequest.Spec, then Spec.Validate). Whatever is accepted
// must respect the per-request size caps, and small accepted instances must
// solve without a panic to either an error or a solution the problem's own
// checker accepts.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{
		`{"graph":{"kind":"edges","n":3,"edges":[[0,1],[1,2]]},"palette":{"palettes":[[-1,7,8],[-1,7,9],[-1,9,10]]}}`,
		`{"model":"mpc","graph":{"kind":"edges","n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0]]}}`,
		`{"model":"lowspace","problem":"mis","graph":{"kind":"scenario","name":"ring-of-cliques","n":32,"seed":1}}`,
		`{"palette":{"kind":"list","universe":64,"seed":2},"graph":{"kind":"gnp","n":24,"p":0.2,"seed":3}}`,
		`{"problem":"rulingset","beta":3,"graph":{"kind":"regular","n":16,"d":3,"seed":1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ColorRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if n := req.Graph.N; n > 1<<12 && n <= maxRequestNodes {
			// Admissible but seconds per input to build; the size caps
			// are still fuzzed on every n outside this band.
			return
		}
		spec, err := req.Spec()
		if err != nil || spec.Validate() != nil {
			return
		}
		n := spec.Inst.G.N()
		if n > maxRequestNodes {
			t.Fatalf("accepted n=%d over the %d cap", n, maxRequestNodes)
		}
		if w := graph.InstanceWordCount(spec.Inst); w > maxRequestWords {
			t.Fatalf("accepted %d canonical words over the %d cap", w, maxRequestWords)
		}
		if n > 64 {
			return
		}
		rep, err := ccolor.Solve(spec.Inst, &ccolor.Options{
			Model: spec.Model, Problem: spec.Problem, Beta: spec.Beta, MPCSpaceFactor: spec.MPCSpaceFactor,
		})
		if err != nil {
			return
		}
		p, err := problem.Lookup(string(rep.Problem))
		if err != nil {
			t.Fatal(err)
		}
		sol := &problem.Solution{Coloring: rep.Coloring, Set: rep.Set, Beta: rep.Beta}
		if err := p.Check(spec.Inst, sol); err != nil {
			t.Fatalf("%s/%s solution fails its checker: %v", rep.Model, rep.Problem, err)
		}
	})
}
