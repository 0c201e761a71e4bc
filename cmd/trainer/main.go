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
	"io"
	"os"
	"strings"

	"repro/internal/autotune"
	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graphio"
	"repro/internal/pipeline"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "trainer:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trainer", flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "sbm", "sbm, products, protein, papers")
		profile   = fs.String("profile", "small", cliutil.ProfileUsage+" (ignored for sbm)")
		p         = fs.Int("p", 4, "simulated GPUs")
		c         = fs.Int("c", 1, "replication factor")
		k         = fs.Int("k", 0, "bulk size (0 or negative = all minibatches at once; with -autotune, 0 = choose for me, -1 = explicitly all)")
		sampler   = fs.String("sampler", core.Samplers[0].Key, samplerUsage())
		algorithm = fs.String("algorithm", "replicated", "replicated or partitioned")
		epochs    = fs.Int("epochs", 5, "training epochs")
		lr        = fs.Float64("lr", 0.01, "learning rate")
		seed      = fs.Int64("seed", 1, "seed")
		maxB      = fs.Int("maxbatches", 0, "cap batches per epoch (0 = all)")
		cachePol  = fs.String("cache", "none", "feature cache: none, static, lru")
		cacheFrac = fs.Float64("cachefrac", 0.1, "cache capacity as fraction of vertices")
		dropout   = fs.Float64("dropout", 0, "dropout rate on hidden activations")
		overlap   = fs.Bool("overlap", false, "software-pipeline sampling and feature fetch against propagation (both algorithms; partitioned collectives run on per-stage streams)")
		ckptOut   = fs.String("checkpoint", "", "write trained parameters to this file")
		ckptIn    = fs.String("resume", "", "initialize parameters from this checkpoint")
		tune      = fs.Bool("autotune", false, "choose c and k automatically by memory model")
	)
	platform := cliutil.RegisterPlatformFlags(fs, true, map[string]string{
		"allreduce": " (with -autotune, default = choose by node span)"})
	if help, err := cliutil.ParseFlags(fs, args, stderr); help || err != nil {
		return err
	}

	var d *datasets.Dataset
	if *dataset == "sbm" {
		d = datasets.DefaultSBM()
	} else {
		prof, err := cliutil.ParseProfile(*profile)
		if err != nil {
			return err
		}
		d, err = datasets.ByName(*dataset, prof)
		if err != nil {
			return err
		}
	}

	model, ckptInterval, err := platform()
	if err != nil {
		return err
	}
	cfg := pipeline.Config{
		P: *p, C: *c, K: *k,
		Sampler: *sampler,
		Epochs:  *epochs, LR: *lr, Seed: *seed,
		MaxBatches:   *maxB,
		Overlap:      *overlap,
		Model:        model,
		CkptInterval: ckptInterval,
	}
	switch *algorithm {
	case "partitioned":
		cfg.Algorithm = pipeline.GraphPartitioned
		cfg.SparsityAware = true
	case "replicated":
	default:
		return fmt.Errorf("unknown algorithm %q (want replicated or partitioned)", *algorithm)
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
		return fmt.Errorf("unknown cache policy %q", *cachePol)
	}

	cfg.Dropout = *dropout
	if *tune {
		tuned, err := autotune.TuneConfig(autotune.DefaultMemoryModel(), d, cfg)
		if err != nil {
			return err
		}
		cfg = tuned
		// The tuner's pick, or the -allreduce selection it left alone.
		fmt.Fprintf(stdout, "autotune: c=%d k=%s allreduce=%s\n", cfg.C, kLabel(cfg.K), cfg.Model.Collectives.AllReduce)
	}

	var resumed []float64
	if *ckptIn != "" {
		if resumed, err = readResume(*ckptIn, d, cfg); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "dataset=%s vertices=%d edges=%d batches=%d | p=%d c=%d sampler=%s algorithm=%s\n",
		d.Name, d.Graph.NumVertices(), d.Graph.NumEdges(), d.NumBatches(),
		cfg.P, cfg.C, *sampler, *algorithm)

	if *ckptIn != "" {
		fmt.Fprintf(stdout, "note: -resume loads parameters for evaluation only (training starts fresh)\n")
	}
	res, err := pipeline.Run(d, cfg)
	if err != nil {
		return err
	}
	if cfg.K > 0 && res.EffectiveK > cfg.K {
		fmt.Fprintf(stdout, "note: bulk size clamped up from k=%d to %d (the schedule samples at least one batch per block per round)\n",
			cfg.K, res.EffectiveK)
	}
	if rec := res.Recovery; rec != nil && rec.Attempts > 1 {
		fmt.Fprintf(stdout, "recovery: %d attempt(s), %d failure(s) fired, %.6g sim-sec wasted\n",
			rec.Attempts, len(rec.Failures), rec.WastedSim)
		for i, f := range rec.Failures {
			fmt.Fprintf(stdout, "  failure %d: rank %d at %.6g sim-sec, resumed from epoch %d\n",
				i, f.Rank, f.At, rec.RestartEpochs[i])
		}
	}
	if *ckptOut != "" {
		f, err := os.Create(*ckptOut)
		if err != nil {
			return err
		}
		if err := graphio.WriteParams(f, res.Params); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint written to %s\n", *ckptOut)
	}
	fmt.Fprintf(stdout, "%5s %10s %10s %10s %10s %10s %10s\n",
		"epoch", "sampling", "fetch", "prop", "stall", "total", "loss")
	for e, st := range res.Epochs {
		fmt.Fprintf(stdout, "%5d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
			e, st.Sampling, st.FeatureFetch, st.Propagation, st.Stall, st.Total, st.Loss)
	}
	params := res.Params
	if resumed != nil {
		params = resumed
	}
	acc := pipeline.Evaluate(d, params, cfg, d.Test)
	fmt.Fprintf(stdout, "test accuracy: %.3f\n", acc)
	return nil
}

// readResume reads the -resume parameters and checks that they fit the
// model cfg trains on d.
func readResume(path string, d *datasets.Dataset, cfg pipeline.Config) ([]float64, error) {
	// Run0Params needs a known sampler to size the model.
	if _, err := core.SamplerByName(cfg.Sampler); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	params, err := graphio.ReadParams(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if want := len(pipeline.Run0Params(d, cfg)); len(params) != want {
		return nil, fmt.Errorf("-resume %s holds %d parameters, the model has %d", path, len(params), want)
	}
	return params, nil
}

// samplerUsage renders core.Samplers as the -sampler help text.
func samplerUsage() string {
	var b strings.Builder
	b.WriteString("sampling algorithm:")
	for _, e := range core.Samplers {
		fmt.Fprintf(&b, "\n  %-8s %s", e.Key, e.Doc)
	}
	return b.String()
}

func kLabel(k int) string {
	if k <= 0 {
		return "all"
	}
	return fmt.Sprint(k)
}
