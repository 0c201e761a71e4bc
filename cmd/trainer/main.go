// Command trainer runs simulated distributed GNN training end to end
// and reports the per-epoch pipeline breakdown and final test accuracy:
//
//	trainer -dataset sbm -p 8 -c 2 -epochs 10
//	trainer -dataset products -profile small -p 16 -c 4 -sampler sage
//	trainer -dataset papers -profile small -p 8 -c 2 -algorithm partitioned
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/autotune"
	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/datasets"
	"repro/internal/graphio"
	"repro/internal/pipeline"
)

func main() {
	var (
		dataset   = flag.String("dataset", "sbm", "sbm, products, protein, papers")
		profile   = flag.String("profile", "small", cliutil.ProfileUsage+" (ignored for sbm)")
		p         = flag.Int("p", 4, "simulated GPUs")
		c         = flag.Int("c", 1, "replication factor")
		k         = flag.Int("k", 0, "bulk size (0 or negative = all minibatches at once; with -autotune, 0 = choose for me, -1 = explicitly all)")
		sampler   = flag.String("sampler", "sage", "sage, ladies or fastgcn")
		algorithm = flag.String("algorithm", "replicated", "replicated or partitioned")
		epochs    = flag.Int("epochs", 5, "training epochs")
		lr        = flag.Float64("lr", 0.01, "learning rate")
		seed      = flag.Int64("seed", 1, "seed")
		maxB      = flag.Int("maxbatches", 0, "cap batches per epoch (0 = all)")
		cachePol  = flag.String("cache", "none", "feature cache: none, static, lru")
		cacheFrac = flag.Float64("cachefrac", 0.1, "cache capacity as fraction of vertices")
		dropout   = flag.Float64("dropout", 0, "dropout rate on hidden activations")
		overlap   = flag.Bool("overlap", false, "software-pipeline sampling and feature fetch against propagation (both algorithms; partitioned collectives run on per-stage streams)")
		ckptOut   = flag.String("checkpoint", "", "write trained parameters to this file")
		ckptIn    = flag.String("resume", "", "initialize parameters from this checkpoint")
		tune      = flag.Bool("autotune", false, "choose c and k automatically by memory model")
	)
	platform := cliutil.RegisterPlatformFlags(flag.CommandLine, true, map[string]string{
		"allreduce": " (with -autotune, default = choose by node span)"})
	flag.Parse()

	var d *datasets.Dataset
	if *dataset == "sbm" {
		d = datasets.DefaultSBM()
	} else {
		prof, err := cliutil.ParseProfile(*profile)
		if err != nil {
			fatal(err)
		}
		d, err = datasets.ByName(*dataset, prof)
		if err != nil {
			fatal(err)
		}
	}

	pf, err := platform()
	if err != nil {
		fatal(err)
	}
	cfg := pipeline.Config{
		P: *p, C: *c, K: *k,
		Sampler: *sampler,
		Epochs:  *epochs, LR: *lr, Seed: *seed,
		MaxBatches:   *maxB,
		Overlap:      *overlap,
		Collectives:  pf.Collectives,
		Topology:     pf.Topology,
		Backend:      pf.Backend,
		Faults:       pf.Faults,
		CkptInterval: pf.CkptInterval,
	}
	switch *algorithm {
	case "partitioned":
		cfg.Algorithm = pipeline.GraphPartitioned
		cfg.SparsityAware = true
	case "replicated":
	default:
		fatal(fmt.Errorf("unknown algorithm %q (want replicated or partitioned)", *algorithm))
	}
	switch *cachePol {
	case "static":
		cfg.CachePolicy = cache.StaticDegree
		cfg.CacheFrac = *cacheFrac
	case "lru":
		cfg.CachePolicy = cache.LRU
		cfg.CacheFrac = *cacheFrac
	case "none":
	default:
		fatal(fmt.Errorf("unknown cache policy %q", *cachePol))
	}

	cfg.Dropout = *dropout
	if *tune {
		tuned, err := autotune.TuneConfig(autotune.DefaultMemoryModel(), d, cfg)
		if err != nil {
			fatal(err)
		}
		cfg = tuned
		fmt.Printf("autotune: c=%d k=%s allreduce=%s\n", cfg.C, kLabel(cfg.K), cfg.Collectives.AllReduce)
	}

	fmt.Printf("dataset=%s vertices=%d edges=%d batches=%d | p=%d c=%d sampler=%s algorithm=%s\n",
		d.Name, d.Graph.NumVertices(), d.Graph.NumEdges(), d.NumBatches(),
		*p, *c, *sampler, *algorithm)

	if *ckptIn != "" {
		fmt.Printf("note: -resume loads parameters for evaluation only (training starts fresh)\n")
	}
	res, err := pipeline.Run(d, cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.K > 0 && res.EffectiveK > cfg.K {
		fmt.Printf("note: bulk size clamped up from k=%d to %d (the schedule samples at least one batch per block per round)\n",
			cfg.K, res.EffectiveK)
	}
	if rec := res.Recovery; rec != nil && rec.Attempts > 1 {
		fmt.Printf("recovery: %d attempt(s), %d failure(s) fired, %.6g sim-sec wasted\n",
			rec.Attempts, len(rec.Failures), rec.WastedSim)
		for i, f := range rec.Failures {
			fmt.Printf("  failure %d: rank %d at %.6g sim-sec, resumed from epoch %d\n",
				i, f.Rank, f.At, rec.RestartEpochs[i])
		}
	}
	if *ckptOut != "" {
		f, err := os.Create(*ckptOut)
		if err != nil {
			fatal(err)
		}
		if err := graphio.WriteParams(f, res.Params); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *ckptOut)
	}
	fmt.Printf("%5s %10s %10s %10s %10s %10s %10s\n",
		"epoch", "sampling", "fetch", "prop", "stall", "total", "loss")
	for e, st := range res.Epochs {
		fmt.Printf("%5d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
			e, st.Sampling, st.FeatureFetch, st.Propagation, st.Stall, st.Total, st.Loss)
	}
	params := res.Params
	if *ckptIn != "" {
		f, err := os.Open(*ckptIn)
		if err != nil {
			fatal(err)
		}
		params, err = graphio.ReadParams(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	acc := pipeline.Evaluate(d, params, cfg, d.Test, nil)
	fmt.Printf("test accuracy: %.3f\n", acc)
}

func kLabel(k int) string {
	if k <= 0 {
		return "all"
	}
	return fmt.Sprint(k)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trainer:", err)
	os.Exit(1)
}
