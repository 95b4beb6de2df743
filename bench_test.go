// Benchmarks regenerating every experiment of the paper (see DESIGN.md
// §4 for the experiment ↔ bench mapping):
//
//	F3 (Figure 3)  BenchmarkFig3
//	F4 (Figure 4)  BenchmarkFig4
//	F5 (Figure 5)  BenchmarkFig5
//	F6 (Figure 6)  BenchmarkFig6
//	T1 (§4.3)      BenchmarkQuality
//	T2 (§4.1)      BenchmarkQuery_* and BenchmarkIndexBuild
//
// plus the ablations DESIGN.md §5 calls out (PLL vs Dijkstra oracle,
// normalization on/off) and component benchmarks for the baselines.
// Benchmarks run at a reduced corpus scale so `go test -bench=.`
// finishes in minutes; cmd/expgen reproduces the experiments at any
// scale.
package authteam_test

import (
	"math/rand"
	"sync"
	"testing"

	"authteam/internal/core"
	"authteam/internal/dblp"
	"authteam/internal/eval"
	"authteam/internal/expertgraph"
	"authteam/internal/oracle"
	"authteam/internal/pll"
	"authteam/internal/transform"
	"authteam/internal/workload"
)

// benchScale is the corpus size for component benchmarks.
const benchScale = 1200

var (
	benchOnce sync.Once
	benchG    *expertgraph.Graph
	benchP    *transform.Params
	benchIdx  *pll.Index // raw weights
	benchIdxG *pll.Index // G' weights
	benchProj map[int][]expertgraph.SkillID
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		c := dblp.Synthesize(dblp.SynthConfig{Seed: 1, Authors: benchScale})
		g, _, err := dblp.BuildGraph(c, dblp.GraphOptions{LargestComponent: true})
		if err != nil {
			panic(err)
		}
		benchG = g
		benchP, err = transform.Fit(g, 0.6, 0.6, transform.Options{Normalize: true})
		if err != nil {
			panic(err)
		}
		benchIdx = pll.Build(g)
		benchIdxG = pll.BuildWithOptions(g, pll.Options{Weight: benchP.EdgeWeight()})
		gen, err := workload.NewGenerator(g, 11, workload.Options{MinHolders: 2})
		if err != nil {
			panic(err)
		}
		benchProj = make(map[int][]expertgraph.SkillID)
		for _, n := range []int{4, 6, 8, 10} {
			p, err := gen.Project(n)
			if err != nil {
				panic(err)
			}
			benchProj[n] = p
		}
	})
}

// --- T2: index construction and per-query latency (§4.1) ---------------

func BenchmarkIndexBuild_G(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pll.Build(benchG)
	}
}

// BenchmarkIndexBuild_GPrime also reports the cover's size: its label
// entries, and how much the packed encoding saves over []labelEntry
// (16 B per entry).
func BenchmarkIndexBuild_GPrime(b *testing.B) {
	benchSetup(b)
	w := benchP.EdgeWeight()
	b.ReportAllocs()
	var ix *pll.Index
	for i := 0; i < b.N; i++ {
		ix = pll.BuildWithOptions(benchG, pll.Options{Weight: w})
	}
	st := ix.Stats()
	b.ReportMetric(float64(st.TotalEntries), "label-entries")
	b.ReportMetric(100*(1-float64(st.PackedBytes)/float64(st.UnpackedBytes)), "label-shrink-%")
}

func benchmarkQuery(b *testing.B, m core.Method, skills int) {
	benchSetup(b)
	var idx oracle.Oracle = oracle.NewPLL(benchIdxG)
	if m == core.CC {
		idx = oracle.NewPLL(benchIdx)
	}
	project := benchProj[skills]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.NewDiscoverer(benchP, m, core.WithOracle(idx))
		if _, err := d.BestTeam(project); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_CC_4Skills(b *testing.B)      { benchmarkQuery(b, core.CC, 4) }
func BenchmarkQuery_CC_10Skills(b *testing.B)     { benchmarkQuery(b, core.CC, 10) }
func BenchmarkQuery_CACC_4Skills(b *testing.B)    { benchmarkQuery(b, core.CACC, 4) }
func BenchmarkQuery_CACC_10Skills(b *testing.B)   { benchmarkQuery(b, core.CACC, 10) }
func BenchmarkQuery_SACACC_4Skills(b *testing.B)  { benchmarkQuery(b, core.SACACC, 4) }
func BenchmarkQuery_SACACC_6Skills(b *testing.B)  { benchmarkQuery(b, core.SACACC, 6) }
func BenchmarkQuery_SACACC_8Skills(b *testing.B)  { benchmarkQuery(b, core.SACACC, 8) }
func BenchmarkQuery_SACACC_10Skills(b *testing.B) { benchmarkQuery(b, core.SACACC, 10) }

// --- Baselines ----------------------------------------------------------

func BenchmarkRandomBaseline_1000Trials(b *testing.B) {
	benchSetup(b)
	idx := oracle.NewPLL(benchIdxG)
	project := benchProj[4]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := core.RandomFast(benchP, project, 1000, rng, idx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExact_4Skills(b *testing.B) {
	benchSetup(b)
	idx := oracle.NewPLL(benchIdxG)
	project := benchProj[4]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Exact(benchP, project, core.ExactOptions{
			MaxCandidatesPerSkill: 4,
			Oracle:                idx,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPareto(b *testing.B) {
	benchSetup(b)
	project := benchProj[4]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.ParetoFront(benchG, project, core.ParetoOptions{
			GammaGrid:  []float64{0.2, 0.8},
			LambdaGrid: []float64{0.2, 0.8},
			TopK:       2,
			UsePLL:     true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkOracle_PLL vs BenchmarkOracle_Dijkstra: per-query distance
// cost of the 2-hop cover against single-source Dijkstra.
func BenchmarkOracle_PLL(b *testing.B) {
	benchSetup(b)
	idx := oracle.NewPLL(benchIdx)
	n := benchG.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := expertgraph.NodeID(i % n)
		v := expertgraph.NodeID((i * 7919) % n)
		_ = idx.Dist(u, v)
	}
}

func BenchmarkOracle_Dijkstra(b *testing.B) {
	benchSetup(b)
	dj := oracle.NewDijkstra(benchG, nil)
	n := benchG.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh source each iteration defeats the source cache, so
		// this measures the true cold-query cost.
		u := expertgraph.NodeID(i % n)
		v := expertgraph.NodeID((i * 7919) % n)
		_ = dj.Dist(u, v)
	}
}

// BenchmarkDiscovery_DijkstraOracle quantifies what the index buys at
// the whole-query level (same search, no preprocessing).
func BenchmarkDiscovery_DijkstraOracle_4Skills(b *testing.B) {
	benchSetup(b)
	project := benchProj[4]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.NewDiscoverer(benchP, core.SACACC)
		if _, err := d.BestTeam(project); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNormalization compares searches with and without
// Definition 4's min–max normalization.
func BenchmarkAblationNormalization(b *testing.B) {
	benchSetup(b)
	for _, norm := range []bool{true, false} {
		name := "normalized"
		if !norm {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			p, err := transform.Fit(benchG, 0.6, 0.6, transform.Options{Normalize: norm})
			if err != nil {
				b.Fatal(err)
			}
			idx := oracle.BuildPLL(benchG, p.EdgeWeight())
			project := benchProj[4]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := core.NewDiscoverer(p, core.SACACC, core.WithOracle(idx))
				if _, err := d.BestTeam(project); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Whole-figure benchmarks (F3–F6, T1) ----------------------------------

// benchEvalEnv is a tiny harness environment reused by the figure
// benchmarks.
var (
	evalOnce sync.Once
	evalEnv  *eval.Env
)

func evalSetup(b *testing.B) *eval.Env {
	b.Helper()
	evalOnce.Do(func() {
		env, err := eval.NewEnv(eval.Config{
			Seed:               1,
			Authors:            600,
			Projects:           2,
			SkillCounts:        []int{4, 6},
			Lambdas:            []float64{0.2, 0.6},
			RandomTrials:       500,
			ExactSkillLimit:    4,
			ExactCandidates:    4,
			ExactProjects:      1,
			QualityProjects:    2,
			QualityTrials:      25,
			SensitivityLambdas: []float64{0.2, 0.5, 0.8},
			Workers:            2,
		})
		if err != nil {
			panic(err)
		}
		evalEnv = env
	})
	return evalEnv
}

func BenchmarkFig3(b *testing.B) {
	env := evalSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFig3(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	env := evalSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFig4(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	env := evalSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFig5(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	env := evalSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFig6(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuality(b *testing.B) {
	env := evalSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunQuality(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusSynthesis measures the dataset substrate itself.
func BenchmarkCorpusSynthesis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dblp.Synthesize(dblp.SynthConfig{Seed: int64(i), Authors: 1000})
	}
}

// BenchmarkGraphDerivation measures corpus → expert network.
func BenchmarkGraphDerivation(b *testing.B) {
	c := dblp.Synthesize(dblp.SynthConfig{Seed: 1, Authors: 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dblp.BuildGraph(c, dblp.GraphOptions{LargestComponent: true}); err != nil {
			b.Fatal(err)
		}
	}
}
