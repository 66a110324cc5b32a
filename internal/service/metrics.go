package service

import "privcount/internal/metrics"

// RegisterMetrics registers the service's observability surface on reg.
// Every series is func-backed: it samples, at scrape time, atomics the
// cache and build pipeline already maintain, so instrumentation adds
// zero work to the sample hot path and a slow scraper can never block
// serving (the registry renders into a buffer before writing). Call it
// once per registry; a second call on the same registry panics on the
// duplicate names, which is the misuse it should be.
func (s *Service) RegisterMetrics(reg *metrics.Registry) {
	reg.NewGaugeFunc("privcount_cache_entries",
		"Mechanisms currently cached across all shards.",
		func() float64 {
			n := 0
			for _, sh := range s.shards {
				n += sh.len()
			}
			return float64(n)
		})
	reg.NewGaugeFunc("privcount_cache_resident_bytes",
		"Heap bytes held by the serving tables of ready cached mechanisms.",
		func() float64 {
			var n int64
			for _, sh := range s.shards {
				n += sh.residentBytes()
			}
			return float64(n)
		})
	reg.NewCounterFunc("privcount_cache_hits_total",
		"Cache lookups served by an existing entry.",
		func() float64 {
			var n int64
			for _, sh := range s.shards {
				n += sh.hitCount()
			}
			return float64(n)
		})
	reg.NewCounterFunc("privcount_cache_misses_total",
		"Cache lookups that admitted a new entry.",
		func() float64 {
			var n int64
			for _, sh := range s.shards {
				n += sh.misses.Load()
			}
			return float64(n)
		})
	reg.NewCounterFunc("privcount_cache_evictions_total",
		"LRU evictions forced by capacity.",
		func() float64 {
			var n int64
			for _, sh := range s.shards {
				n += sh.evictions.Load()
			}
			return float64(n)
		})

	reg.NewGaugeFunc("privcount_build_queue_depth",
		"Admitted builds waiting for a worker.",
		func() float64 { return float64(len(s.build.queue)) })
	reg.NewGaugeFunc("privcount_builds_in_flight",
		"Builds currently executing on the worker pool.",
		func() float64 { return float64(s.build.inFlight.Load()) })
	reg.NewGaugeFunc("privcount_build_inflight_seconds",
		"Summed elapsed wall seconds of the builds currently executing (the MaxInFlightSeconds admission signal).",
		s.inFlightSeconds)

	for _, k := range Kinds() {
		kc := &s.build.byKind[k]
		kind := k.String()
		results := []struct {
			result string
			fn     func() float64
		}{
			{"ok", func() float64 { return float64(kc.builds.Load()) }},
			{"failed", func() float64 { return float64(kc.failures.Load()) }},
			{"canceled", func() float64 { return float64(kc.cancels.Load()) }},
		}
		for _, r := range results {
			reg.NewLabeledCounterFunc("privcount_builds_total",
				"Settled mechanism builds by kind and result (ok, failed, canceled).",
				[]string{"kind", "result"}, []string{kind, r.result}, r.fn)
		}
		reg.NewLabeledCounterFunc("privcount_build_seconds_total",
			"Cumulative wall seconds spent building, by kind.",
			[]string{"kind"}, []string{kind},
			func() float64 { return float64(kc.nanos.Load()) / 1e9 })
	}

	// Store-tier series are registered unconditionally — they read
	// zeros when no Store is configured — so the exposition's shape
	// does not depend on deployment flags.
	reg.NewCounterFunc("privcount_store_hits_total",
		"Builds served from a stored artifact instead of a solve.",
		func() float64 { return float64(s.store.hits.Load()) })
	reg.NewCounterFunc("privcount_store_misses_total",
		"Store reads that fell back to a solve.",
		func() float64 { return float64(s.store.misses.Load()) })
	reg.NewCounterFunc("privcount_store_put_failures_total",
		"Write-behind artifact persists that errored.",
		func() float64 { return float64(s.store.putFails.Load()) })
	reg.NewCounterFunc("privcount_store_quarantines_total",
		"Stored artifacts that failed verification and were moved aside.",
		func() float64 { return float64(s.store.quarantines.Load()) })
	reg.NewCounterFunc("privcount_store_read_bytes_total",
		"Artifact bytes read from the store.",
		func() float64 { return float64(s.store.bytesRead.Load()) })
	reg.NewCounterFunc("privcount_store_written_bytes_total",
		"Artifact bytes written to the store.",
		func() float64 { return float64(s.store.bytesWritten.Load()) })

	for _, reason := range []string{ShedQueueDepth, ShedBuildSeconds} {
		src := &s.build.shedQueue
		if reason == ShedBuildSeconds {
			src = &s.build.shedSeconds
		}
		reg.NewLabeledCounterFunc("privcount_admission_shed_total",
			"Build admissions refused by the load-shedding gate, by reason.",
			[]string{"reason"}, []string{reason},
			func() float64 { return float64(src.Load()) })
	}
}
