package main

import (
	"fmt"
	"math/rand"

	"miso/internal/data"
	"miso/internal/multistore"
	"miso/internal/storage"
	paper "miso/internal/workload"
)

const (
	// Zipf exponent of the served clients' draws over the 32 queries; rank k
	// is the k-th query in paper order, so the hot set is the same at
	// every seed and only the order of draws changes.
	zipfS = 1.2
	// A served round reorganizes after every reorgEvery completions and, on
	// served_ingest, appends appendLines tweets after every appendEvery:
	// 1.25 lines per query. In batches of 50 lines every 40 completions, 55
	// per cent of answers come from the cache or a shared flight, which
	// puts the median latency on the cliff between a hit and a miss, where
	// it swings 18 per cent from seed to seed. In batches five times larger
	// and rarer that share is 75 per cent and the median holds still.
	reorgEvery  = 100
	appendEvery = 200
	appendLines = 250
	// The sequential pair reorganizes before every query whose index is a
	// positive multiple of seqReorgEvery: the paper's ReorgEvery=3, driven
	// by the harness so the stall is timed on its own.
	seqReorgEvery = 3
)

// inputs is everything a run derives from -seed. The program under test
// receives only the SQL strings and the log lines.
type inputs struct {
	seed   int64
	data   data.Config
	sqls   []string
	extra  []string // tweets of a second generated catalog, appended by served_ingest
	oracle []uint64 // each query's answer over the unmodified data
}

func newInputs(seed int64, quick bool) (*inputs, error) {
	dc := data.DefaultConfig()
	if quick {
		dc = data.SmallConfig()
	}
	dc.Seed = -seed
	in := &inputs{seed: seed, data: dc, sqls: paper.SQLs()}
	second := dc
	second.Seed = -seed + 1000
	cat, err := data.Generate(second)
	if err != nil {
		return nil, err
	}
	log, err := cat.Log(data.TweetsLog)
	if err != nil {
		return nil, err
	}
	in.extra = log.Lines

	if cat, err = in.catalog(); err != nil {
		return nil, err
	}
	if in.oracle, err = in.answers(hvOnly.newSystem(cat)); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return in, nil
}

// catalog generates this run's data afresh: served_ingest mutates it, so
// every round starts from its own copy.
func (in *inputs) catalog() (*storage.Catalog, error) { return data.Generate(in.data) }

// draws is client c's query stream: an endless, seed-determined sequence of
// indices into sqls.
func (in *inputs) draws(client int) func() int {
	r := rand.New(rand.NewSource(in.seed*7919 + int64(client)))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(in.sqls)-1))
	return func() int { return int(z.Uint64()) }
}

// appendBatch is the k-th batch of tweets served_ingest appends.
func (in *inputs) appendBatch(k int) []string {
	batch := make([]string, appendLines)
	for i := range batch {
		batch[i] = in.extra[(k*appendLines+i)%len(in.extra)]
	}
	return batch
}

// hvOnly is the oracle's configuration.
var hvOnly = workload{variant: multistore.VariantHVOnly}

// config is the workload's system configuration: the paper's budgets, and
// reorganizations left to the harness.
func (w workload) config(cat *storage.Catalog) multistore.Config {
	cfg := multistore.DefaultConfig(w.variant)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.ReorgEvery = 0
	cfg.Reuse.Enabled = w.reuse
	if w.ingest {
		cfg.CheckpointEvery = 16
	}
	return cfg
}

func (w workload) newSystem(cat *storage.Catalog) *multistore.System {
	return multistore.New(w.config(cat), cat)
}

// answers runs the 32 queries in paper order on sys and returns each
// answer's data checksum. On a fresh HV-ONLY system this is the oracle.
func (in *inputs) answers(sys *multistore.System) ([]uint64, error) {
	sums := make([]uint64, len(in.sqls))
	for i, sql := range in.sqls {
		rep, err := sys.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		sums[i] = storage.ChecksumData(rep.Result)
	}
	return sums, nil
}
