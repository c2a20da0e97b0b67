package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccolor"
	"ccolor/internal/scenario"
)

// Load-generator mode: with -serve-url set, ccbench stops being a table
// reproducer and becomes a closed-loop client fleet for cmd/ccserve —
// -concurrency workers each issue POST /v1/solve requests drawn from a
// weighted scenario mix (any internal/scenario registry name, across the
// three execution models) until -duration elapses, then a latency/
// throughput/cache summary prints. Workload generation is seeded, so a
// fixed (-seed, -concurrency) pair replays the same request stream and
// exercises the server's content-addressed cache deterministically.

type loadConfig struct {
	URL         string
	Concurrency int
	Duration    time.Duration
	Mix         string // registry scenario weights, e.g. "gnp=2,rmat=1", or "all"
	Models      string // comma-separated model rotation
	Problems    string // comma-separated registry-problem rotation
	Sizes       string // comma-separated node counts to sample
	Distinct    int    // distinct seeds per scenario shape (cache churn knob)
	Seed        uint64
}

// parseProblems validates a comma-separated problem rotation against the
// registry.
func parseProblems(s string) ([]ccolor.Problem, error) {
	var out []ccolor.Problem
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := ccolor.ParseProblem(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no problems in %q", s)
	}
	return out, nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes in %q", s)
	}
	return out, nil
}

// pick returns a weighted random scenario from the mix.
func pick(rng *rand.Rand, mix []scenario.MixEntry) *scenario.Spec {
	total := 0
	for _, e := range mix {
		total += e.Weight
	}
	r := rng.Intn(total)
	for _, e := range mix {
		if r < e.Weight {
			return e.Spec
		}
		r -= e.Weight
	}
	return mix[len(mix)-1].Spec
}

// buildRequest renders one /v1/solve body for the drawn scenario. The body
// uses the server's "scenario" graph kind, so the instance the server
// builds is the registry-canonical one — identical (name, n, seed, problem)
// draws land on the same content-addressed cache entry regardless of which
// client generated them.
func buildRequest(rng *rand.Rand, spec *scenario.Spec, model string, prob ccolor.Problem, sizes []int, distinct int) map[string]any {
	n := sizes[rng.Intn(len(sizes))]
	seed := uint64(rng.Intn(distinct))
	body := map[string]any{
		"model":         model,
		"graph":         map[string]any{"kind": "scenario", "name": spec.Name, "n": n, "seed": seed},
		"scenario":      spec.Name,
		"omit_coloring": true,
	}
	if prob != ccolor.ProblemColoring {
		body["problem"] = string(prob)
	}
	return body
}

type loadStats struct {
	mu        sync.Mutex
	requests  int
	errors    int
	rejected  int // 429 backpressure responses
	cacheHits int
	rounds    int64
	words     int64
	latencies []time.Duration
}

func (s *loadStats) record(lat time.Duration, status int, cacheHit bool, rounds int, words int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	switch {
	case status == http.StatusTooManyRequests:
		s.rejected++
	case status != http.StatusOK:
		s.errors++
	default:
		s.latencies = append(s.latencies, lat)
		if cacheHit {
			s.cacheHits++
		}
		s.rounds += int64(rounds)
		s.words += words
	}
}

func runLoad(cfg loadConfig) error {
	mix, err := scenario.ParseMix(cfg.Mix)
	if err != nil {
		return err
	}
	sizes, err := parseSizes(cfg.Sizes)
	if err != nil {
		return err
	}
	for _, n := range sizes {
		if n < scenario.MinNodes {
			return fmt.Errorf("size %d below the scenario minimum %d", n, scenario.MinNodes)
		}
	}
	models := strings.Split(cfg.Models, ",")
	for i := range models {
		models[i] = strings.TrimSpace(models[i])
	}
	probs, err := parseProblems(cfg.Problems)
	if err != nil {
		return err
	}
	if cfg.Concurrency < 1 {
		return fmt.Errorf("concurrency %d < 1", cfg.Concurrency)
	}
	if cfg.Distinct < 1 {
		cfg.Distinct = 1
	}
	url := strings.TrimSuffix(cfg.URL, "/") + "/v1/solve"
	client := &http.Client{Timeout: 60 * time.Second}

	stats := &loadStats{}
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(w)))
			for i := 0; time.Now().Before(deadline); i++ {
				model := models[(w+i)%len(models)]
				// Problems advance once per full model rotation so the fleet
				// covers the whole (model × problem) cross product.
				prob := probs[((w+i)/len(models))%len(probs)]
				body, err := json.Marshal(buildRequest(rng, pick(rng, mix), model, prob, sizes, cfg.Distinct))
				if err != nil {
					stats.record(0, -1, false, 0, 0)
					continue
				}
				start := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					stats.record(0, -1, false, 0, 0)
					// Don't spin at full speed against a dead or draining
					// server; transport errors are instant.
					time.Sleep(50 * time.Millisecond)
					continue
				}
				var out struct {
					Rounds     int   `json:"rounds"`
					WordsMoved int64 `json:"words_moved"`
				}
				dec := json.NewDecoder(resp.Body)
				if resp.StatusCode == http.StatusOK {
					if err := dec.Decode(&out); err != nil {
						resp.Body.Close()
						stats.record(0, -1, false, 0, 0)
						continue
					}
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				stats.record(time.Since(start), resp.StatusCode,
					resp.Header.Get("X-CCServe-Cache") == "hit", out.Rounds, out.WordsMoved)
				if resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode >= http.StatusInternalServerError {
					time.Sleep(10 * time.Millisecond) // back off a saturated server
				}
			}
		}(w)
	}
	wg.Wait()
	printLoadSummary(cfg, stats)
	return nil
}

func printLoadSummary(cfg loadConfig, s *loadStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := len(s.latencies)
	fmt.Printf("# load: url=%s concurrency=%d duration=%v mix=%s models=%s problems=%s\n",
		cfg.URL, cfg.Concurrency, cfg.Duration, cfg.Mix, cfg.Models, cfg.Problems)
	fmt.Printf("requests=%d ok=%d rejected_429=%d errors=%d\n", s.requests, ok, s.rejected, s.errors)
	if ok == 0 {
		return
	}
	fmt.Printf("throughput=%.1f req/s cache_hit_rate=%.3f rounds_total=%d words_total=%d\n",
		float64(ok)/cfg.Duration.Seconds(), float64(s.cacheHits)/float64(ok), s.rounds, s.words)
	sorted := append([]time.Duration(nil), s.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) time.Duration { return sorted[int(p*float64(len(sorted)-1))] }
	fmt.Printf("latency p50=%v p90=%v p99=%v max=%v\n",
		q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), sorted[len(sorted)-1].Round(time.Microsecond))
}
