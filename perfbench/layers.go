package main

// layers.go: the traced run and its per-layer metrics. A layer's self time
// is its span minus the spans of the layers it calls:
//
//	netserve  client round trip − backend span
//	serve     backend span − search span − encode time (queue, batching,
//	          handoff); in the fleet, each replica engine's span
//	encoder   direct EncodeText over the workload's texts (no seam exists
//	          inside the engine)
//	search    wrapped core.Searcher
//	fleet     ask − its slowest replica span (scatter, gather, reduce)
//
// so on one-text frames netserve + serve + encoder + search self times add
// up to the mean round trip by construction (the engine has no seam between
// its queue and its encoder); a negative serve.wait_us.mean would mean the
// direct encoder timing overstates the in-engine one.

import (
	"fmt"
	"time"

	"hdam/internal/serve"
)

func runTraced(w *Workload, scratch string, conns int, dur time.Duration) (result, error) {
	// The untraced reference window the shims' overhead is measured against.
	plain, err := measure(w, nil, scratch, conns, dur)
	if err != nil {
		return result{}, err
	}
	t := newTracer()
	m, err := measure(w, t, scratch, conns, dur)
	if err != nil {
		return result{}, err
	}
	ms := layerMetrics(m, t)
	// The two windows meet the box at different speeds: compare them at the
	// nominal one.
	plainN, err := plain.win.normalize()
	if err != nil {
		return result{}, err
	}
	tracedN, err := m.win.normalize()
	if err != nil {
		return result{}, err
	}
	ms["trace.qps_overhead_pct"] = metric{100 * (plainN.qps - tracedN.qps) / plainN.qps, "%"}
	ms["box.ref_cpu_us"] = metric{float64(refCPUNominal) / 1e3 / tracedN.cpuSpeed, "us"}
	fmt.Printf("record traced_qps_norm=%.1f untraced_qps_norm=%.1f steal_pct=%.3f\n", tracedN.qps, plainN.qps, m.win.steal)
	r := m.result(ms)
	if plain.v.mismatches > 0 {
		r.Correct = false
	}
	r.Attempted += plain.v.attempted
	r.Failed += plain.v.failed
	return r, nil
}

// layerMetrics derives every per-layer metric from one traced window.
// Layers the workload does not run report zero.
func layerMetrics(m measured, t *tracer) map[string]metric {
	win, v, st := m.win, m.v, m.st
	us := time.Microsecond
	texts := float64(win.answers())

	rtt := win.latencies()
	backend := durDist(t.backend.snapshot(), us)
	search := durDist(t.search.snapshot(), us)
	replica := durDist(t.replica.snapshot(), us)
	encode := durDist(v.encode, us)

	// The engine layer: the backend span itself, or in the fleet each
	// replica engine's span behind its transport.
	engine, fleetAsk := backend, dist(nil)
	if st.fl != nil {
		engine, fleetAsk = replica, backend
	}
	netSelf := rtt.mean(us) - durDist(t.frameSpans(), us).mean()
	searchPerEngine := search.mean() * float64(len(search)) / float64(max(len(engine), 1))
	wait := engine.mean() - searchPerEngine - encode.mean()
	nsPerGram := 0.0
	if v.grams > 0 {
		nsPerGram = float64(sumDur(v.encode)) / float64(v.grams)
	}

	ms := map[string]metric{
		"netserve.rtt_us.p50":   {rtt.p(50, us), "us"},
		"netserve.rtt_us.p99":   {rtt.p(99, us), "us"},
		"netserve.self_us.mean": {netSelf, "us"},

		"serve.backend_us.p50": {engine.p(50), "us"},
		"serve.backend_us.p99": {engine.p(99), "us"},
		"serve.wait_us.mean":   {wait, "us"},

		"encoder.encode_us.p50": {encode.p(50), "us"},
		"encoder.ns_per_gram":   {nsPerGram, "ns"},

		"search.us.p50": {search.p(50), "us"},
	}
	srv := st.srv.Stats()
	ms["netserve.shed"] = metric{float64(srv.InflightShed + srv.HTTPShed), "count"}

	engines := st.replicas
	if st.eng != nil {
		engines = []*serve.Engine{st.eng}
	}
	var batches, batched, refused uint64
	for _, e := range engines {
		es := e.Stats()
		batches += es.Batches
		batched += es.Batched
		refused += es.Rejected + es.Shed
	}
	ms["serve.avg_batch"] = metric{float64(batched) / float64(max(batches, 1)), "count"}
	ms["serve.refused"] = metric{float64(refused), "count"}
	swap := durDist(t.swap.snapshot(), time.Millisecond)
	ms["serve.swap_ms.p50"] = metric{swap.p(50), "ms"}
	ms["serve.swap_ms.max"] = metric{swap.max(), "ms"}

	// fleet
	fm := map[string]float64{}
	if st.fl != nil {
		fs := st.fl.Stats()
		fm["fleet.ask_us.p50"] = fleetAsk.p(50)
		fm["fleet.ask_us.p99"] = fleetAsk.p(99)
		fm["fleet.replica_us.p50"] = replica.p(50)
		fm["fleet.replica_us.p99"] = replica.p(99)
		fm["fleet.self_us.mean"] = durDist(t.fleetSelf.snapshot(), us).mean()
		fm["fleet.encodes_per_ask"] = float64(t.transport.Load()) / float64(t.asks.Load())
		fm["fleet.retried"] = float64(fs.Retried)
		fm["fleet.hedged"] = float64(fs.Hedged)
		fm["fleet.degraded"] = float64(fs.Degraded)
		// Partials that reached the reduce, over partials requested.
		reduced := float64(fs.Answered)*float64(st.fl.Partitions()) - float64(fs.Erasures+fs.GenDropped)
		fm["fleet.useful_partials"] = max(reduced, 0) / float64(t.transport.Load())
	}
	for _, n := range []string{"fleet.ask_us.p50", "fleet.ask_us.p99", "fleet.replica_us.p50", "fleet.replica_us.p99", "fleet.self_us.mean"} {
		ms[n] = metric{fm[n], "us"}
	}
	for _, n := range []string{"fleet.encodes_per_ask", "fleet.retried", "fleet.hedged", "fleet.degraded"} {
		ms[n] = metric{fm[n], "count"}
	}
	ms["fleet.useful_partials"] = metric{fm["fleet.useful_partials"], "ratio"}

	// learn and store
	ingest := durDist(t.ingest.snapshot(), us)
	reconcile := durDist(t.reconcile.snapshot(), time.Millisecond)
	check := durDist(t.check.snapshot(), time.Millisecond)
	var learnRefused, perGen, publish float64
	if st.lr != nil {
		ls := st.lr.Stats()
		learnRefused = float64(ls.Rejected + ls.Invalid)
		if ls.Gen > 0 {
			perGen = float64(ls.Examples) / float64(ls.Gen)
		}
		publish = durDist(win.learn.publishes, time.Millisecond).p(50)
	}
	ms["learn.ingest_us.p50"] = metric{ingest.p(50), "us"}
	ms["learn.ingest_us.p99"] = metric{ingest.p(99), "us"}
	ms["learn.refused"] = metric{learnRefused, "count"}
	ms["learn.reconcile_ms.p50"] = metric{reconcile.p(50), "ms"}
	ms["learn.reconcile_ms.max"] = metric{reconcile.max(), "ms"}
	ms["learn.reconcile_self_ms.p50"] = metric{durDist(t.recSelf.snapshot(), time.Millisecond).p(50), "ms"}
	ms["learn.examples_per_gen"] = metric{perGen, "count"}
	ms["learn.publish_ms.p50"] = metric{publish, "ms"}
	ms["learn.new_class_accuracy"] = metric{v.newClassAcc, "ratio"}
	ms["store.check_ms.p50"] = metric{check.p(50), "ms"}

	// runtime, from runtime/metrics over the window
	gc := newHistDelta(win.rt0.gcPauses, win.rt1.gcPauses)
	sched := newHistDelta(win.rt0.schedLat, win.rt1.schedLat)
	ms["runtime.gc_pause_us.p99"] = metric{gc.quantile(0.99) * 1e6, "us"}
	ms["runtime.sched_latency_us.p99"] = metric{sched.quantile(0.99) * 1e6, "us"}
	ms["runtime.alloc_bytes_per_req"] = metric{float64(win.rt1.allocB-win.rt0.allocB) / texts, "B"}

	ms["box.steal_pct"] = metric{win.steal, "%"}
	return ms
}
