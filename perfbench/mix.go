package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/problem"
	"ccolor/internal/scenario"
)

// The serve-mix request list. It is a pure function of the seed and its
// length, so every run sends the same requests in the same order.
var (
	mixModels    = []engine.Model{engine.ModelCClique, engine.ModelMPC, engine.ModelLowSpace}
	mixProblems  = []problem.Kind{problem.Coloring, problem.MIS, problem.RulingSet}
	mixScenarios = []string{"gnp", "regular", "powerlaw", "geometric"}
	mixSizes     = []int{256, 1024}
)

const (
	// requestsPerSecond sets the default list length from -seconds: about
	// what the two connections drain per second on the benchmark box.
	requestsPerSecond = 300
	// requestsPerSeed sizes the seed pool: one pool seed per this many list
	// entries gives each of the 72 shapes length/requestsPerSeed seeds, so
	// about half the list repeats an earlier request, and a full-length list
	// has more distinct instances than ccserve's 1024-entry cache holds.
	requestsPerSeed = 200
	// Every edgesEvery-th request sends its graph as an explicit edge list,
	// and every fullEvery-th asks for the full solution vector.
	edgesEvery = 8
	fullEvery  = 4
)

// instanceSpec is one distinct request of the list.
type instanceSpec struct {
	model    engine.Model
	problem  problem.Kind
	scenario string
	n        int
	seed     uint64
	// edges sends the scenario's graph as an explicit edge list with
	// {1..Δ+1} palettes instead of naming the scenario.
	edges bool
}

// mixEntry is one position of the list.
type mixEntry struct {
	spec int // index into the distinct specs
	full bool
}

// buildMix draws the list for a seed.
func buildMix(seed uint64, length int) ([]instanceSpec, []mixEntry) {
	rng := rand.New(rand.NewPCG(seed, 0x636373657276))
	pool := max(1, length/requestsPerSeed)
	shapes := len(mixModels) * len(mixProblems) * len(mixScenarios) * len(mixSizes)
	index := map[instanceSpec]int{}
	var specs []instanceSpec
	list := make([]mixEntry, length)
	// Every shape appears equally often, in a seeded order, so the cost of
	// the list varies little from seed to seed.
	order := make([]int, length)
	for i := range order {
		order[i] = i % shapes
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i := range list {
		shape := order[i]
		s := instanceSpec{
			model:    mixModels[shape%3],
			problem:  mixProblems[shape/3%3],
			scenario: mixScenarios[shape/9%4],
			n:        mixSizes[shape/36],
			seed:     seed*1000 + uint64(rng.IntN(pool)),
			edges:    i%edgesEvery == edgesEvery-1,
		}
		idx, ok := index[s]
		if !ok {
			idx = len(specs)
			index[s] = idx
			specs = append(specs, s)
		}
		list[i] = mixEntry{spec: idx, full: i%fullEvery == 1}
	}
	return specs, list
}

// wireGraph, wirePalette and wireRequest are ccserve's POST /v1/solve body.
type wireGraph struct {
	Kind  string     `json:"kind"`
	Name  string     `json:"name,omitempty"`
	N     int        `json:"n"`
	Seed  uint64     `json:"seed,omitempty"`
	Edges [][2]int32 `json:"edges,omitempty"`
}

type wirePalette struct {
	Kind string `json:"kind"`
}

type wireRequest struct {
	Model        string       `json:"model"`
	Problem      string       `json:"problem"`
	Graph        wireGraph    `json:"graph"`
	Palette      *wirePalette `json:"palette,omitempty"`
	Async        bool         `json:"async,omitempty"`
	OmitColoring bool         `json:"omit_coloring,omitempty"`
}

// wireResponse is the part of ccserve's result body the benchmark checks.
type wireResponse struct {
	Model      string        `json:"model"`
	Problem    string        `json:"problem"`
	N          int           `json:"n"`
	Coloring   []graph.Color `json:"coloring"`
	Set        []int32       `json:"set"`
	Rounds     int           `json:"rounds"`
	WordsMoved int64         `json:"words_moved"`
}

// edgeList lists g's edges once each, smaller endpoint first.
func edgeList(g *graph.Graph) [][2]int32 {
	out := make([][2]int32, 0, g.M())
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]int32{u, v})
			}
		}
	}
	return out
}

// body encodes the request for spec. g is the scenario's graph, needed
// only for edge-list requests.
func body(s instanceSpec, g *graph.Graph, full, async bool) ([]byte, error) {
	req := wireRequest{
		Model:        string(s.model),
		Problem:      string(s.problem),
		Graph:        wireGraph{Kind: "scenario", Name: s.scenario, N: s.n, Seed: s.seed},
		Async:        async,
		OmitColoring: !full,
	}
	if s.edges {
		req.Graph = wireGraph{Kind: "edges", N: s.n, Edges: edgeList(g)}
		req.Palette = &wirePalette{Kind: "delta+1"}
	}
	return json.Marshal(req)
}

// instance builds what ccserve builds for the request: the scenario's
// canonical instance, or {1..Δ+1} palettes over the explicit edge list.
func instance(s instanceSpec, g *graph.Graph) (*graph.Instance, error) {
	if s.edges {
		eg, err := graph.FromEdges(s.n, edgeList(g))
		if err != nil {
			return nil, err
		}
		return graph.DeltaPlus1Instance(eg), nil
	}
	spec, err := scenario.Lookup(s.scenario)
	if err != nil {
		return nil, err
	}
	return spec.InstanceFromGraph(g, s.n, s.seed)
}

func (s instanceSpec) String() string {
	kind := "scenario"
	if s.edges {
		kind = "edges"
	}
	return fmt.Sprintf("%s/%s/%s n=%d seed=%d (%s)", s.model, s.problem, s.scenario, s.n, s.seed, kind)
}
