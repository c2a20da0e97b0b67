package main

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strings"
	"testing"

	"ccolor/internal/server"
)

// wirePins are fixed /v1/solve bodies and the SHA-256 of their response
// bodies. The digests pin every byte of the wire format — coloring or set,
// rounds, words, max_node_load, rounds_by_phase, machines, space and
// peak_space — across refactors of the engine's cost record, which the
// response derives its fields from. The mpc bodies use a small
// mpc_space_factor so the cluster spans several machines.
var wirePins = []struct{ body, sha string }{
	{`{"model":"cclique","graph":{"kind":"gnp","n":96,"p":0.06,"seed":11}}`,
		"b1301db933df53fb1663db1ed70941d0aa8539c2d5777aec050dda6648f79121"},
	{`{"model":"cclique","problem":"mis","graph":{"kind":"gnp","n":96,"p":0.06,"seed":11}}`,
		"34ce91fd4a08a937ad32faad45c0d0109e72a73e3c5c4110877ca8673d20358b"},
	{`{"model":"mpc","mpc_space_factor":16,"graph":{"kind":"regular","n":96,"d":8,"seed":4}}`,
		"bdc160a7f2ca6a60834b60cb34074bad791d2cf8103a5640b1e17d87a761dd01"},
	{`{"model":"mpc","problem":"mis","mpc_space_factor":8,"graph":{"kind":"regular","n":96,"d":8,"seed":4}}`,
		"5eac4a7233c9c6d4171fe43ccee2a0f677afe8e6244b4f086068738872f69144"},
	{`{"model":"lowspace","graph":{"kind":"powerlaw","n":128,"attach":3,"seed":5}}`,
		"4f2f82df6e8d88473c16b756a58192eed7e547cdee433e231d3f8ba7c7cb01ae"},
	{`{"model":"lowspace","problem":"mis","graph":{"kind":"powerlaw","n":128,"attach":3,"seed":5}}`,
		"410335f512a615c23e129996ec5111f4b3b40a1a6e4b62b7cac22726dbe32696"},
	{`{"model":"mpc","problem":"rulingset","beta":3,"mpc_space_factor":4,"graph":{"kind":"scenario","name":"rmat","n":128,"seed":2}}`,
		"2eee9c8c01d901a430de2b54d0383fecd70a1de9b8a1374ca94793a2174deeec"},
	{`{"model":"lowspace","palette":{"kind":"list","universe":4096,"seed":3},"graph":{"kind":"scenario","name":"ring-of-cliques","n":96,"seed":1}}`,
		"8a5d9a1e979622be6d58076291336d5ade4e20dc9787b217b278d40d3f3c0a9d"},
}

func TestSolveWireBytesPinned(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 16})
	for _, pin := range wirePins {
		rec := post(t, h, "/v1/solve", pin.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s -> %d %s", pin.body, rec.Code, rec.Body)
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pin.sha {
			t.Errorf("%s: response sha256 %s, pinned %s\nbody: %.400s", pin.body, got, pin.sha, rec.Body)
		}
		for _, field := range []string{`"rounds_by_phase"`, `"max_node_load"`} {
			if !strings.Contains(rec.Body.String(), field) {
				t.Errorf("%s: response lacks %s", pin.body, field)
			}
		}
	}
}
