package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"tvsched/internal/bpred"
	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/isa"
	"tvsched/internal/mem"
	"tvsched/internal/obs"
	obsspan "tvsched/internal/obs/span"
	"tvsched/internal/pipeline"
	"tvsched/internal/store"
	"tvsched/internal/tep"
	"tvsched/internal/workload"
)

// commonLayers derives the per-layer metrics every workload shares from the
// span table and the verified operations: session phases, the pipeline's
// host cost per simulated instruction and cycle, and its exact counts.
func commonLayers(ops []op, lt *layerTable, m map[string]float64) {
	m["sim.new_ms"] = ms(lt.mean("sim.new"))
	m["sim.warmup_ms"] = ms(lt.mean("sim.warmup"))
	m["sim.restore_ms"] = ms(lt.mean("sim.restore"))
	m["sim.run_ms"] = ms(lt.mean("sim.run"))
	m["sim.snapshot_ms"] = ms(lt.mean("sim.snapshot"))
	m["sim.render_us"] = us(lt.mean("sim.render"))

	// Only operations that simulated carry a measured phase; cache hits and
	// collapsed duplicates share another operation's.
	var insts, cycles, violations, replays uint64
	for i := range ops {
		if o := &ops[i]; o.err == nil && (o.class == "cold" || o.class == "restored" || o.class == "miss") {
			insts += o.insts
			cycles += o.cycles
			violations += o.violations
			replays += o.replays
		}
	}
	run := float64(lt.total("sim.run"))
	m["pipeline.ns_per_inst"] = ratio(run, float64(insts))
	m["pipeline.ns_per_cycle"] = ratio(run, float64(cycles))
	m["pipeline.insts"] = float64(insts)
	m["pipeline.cycles"] = float64(cycles)
	m["pipeline.violations"] = float64(violations)
	m["pipeline.replays"] = float64(replays)
	m["trace.residual_pct"] = lt.ResidualPct
}

// runtimeLayers reports the Go runtime's work over the timed run.
func runtimeLayers(before, after *runtime.MemStats, nops int, m map[string]float64) {
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["runtime.allocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), float64(nops))
}

// replayComponents replays each profile's own instruction stream — from
// workload.Generator, exactly as a session draws it — through the public
// calls of the components the cycle loop drives, one component at a time,
// and reports each call's host cost. pipeline.self_ns_per_inst is what is
// left of the measured ns/inst once those calls, weighted by how often the
// loop makes them, are taken out: the loop's own bookkeeping.
func replayComponents(sz size, seed uint64, m map[string]float64, cyclesPerInst, readyPerCycle float64) {
	pcfg := pipeline.DefaultConfig()
	var (
		next, inst, data, upd, look, train, viol time.Duration
		order                                    [3]time.Duration
		nInst, nData, nBranch, nViol, nOrder     int
		l1d, l2                                  mem.CacheStats
		mispredicts                              uint64
	)
	n := sz.replayInsts
	policies := [3]core.Policy{core.AgeBased, core.FaultyFirst, core.CriticalityDriven}
	for _, name := range sz.benchmarks {
		prof, _ := workload.ByName(name)
		gen, err := workload.NewGenerator(prof, seed)
		if err != nil {
			continue
		}
		insts := make([]isa.Inst, n)
		t := time.Now()
		for i := range insts {
			insts[i] = gen.Next()
		}
		next += time.Since(t)

		// The front end touches the I-cache once per new line; loads and
		// stores touch the D-cache. Both share the prefilled L2.
		var ilines, daddrs, branches []int
		last := ^uint64(0)
		for i := range insts {
			if l := insts[i].PC >> 6; l != last {
				ilines, last = append(ilines, i), l
			}
			if insts[i].Class.IsMem() {
				daddrs = append(daddrs, i)
			}
			if insts[i].Class == isa.Branch {
				branches = append(branches, i)
			}
		}
		h := mem.NewHierarchy(pcfg.Hierarchy)
		h.Prefill(gen.WarmRegion())
		l2Before := h.L2.Stats
		t = time.Now()
		for _, i := range ilines {
			h.InstAccess(insts[i].PC)
		}
		inst += time.Since(t)
		t = time.Now()
		for _, i := range daddrs {
			h.DataAccess(insts[i].Addr)
		}
		data += time.Since(t)
		nInst, nData = nInst+len(ilines), nData+len(daddrs)
		l1d.Accesses += h.L1D.Stats.Accesses
		l1d.Misses += h.L1D.Stats.Misses
		l2.Accesses += h.L2.Stats.Accesses - l2Before.Accesses
		l2.Misses += h.L2.Stats.Misses - l2Before.Misses

		bp := bpred.New(bpred.DefaultConfig())
		t = time.Now()
		for _, i := range branches {
			bp.Update(insts[i].PC, insts[i].Taken, insts[i].Target)
		}
		upd += time.Since(t)
		nBranch += len(branches)
		mispredicts += bp.Stats.Mispredicts

		// Ground truth at the high-fault supply: every stage an
		// instruction can occupy, as the fetch path evaluates it.
		fc := fault.DefaultConfig(seed)
		fc.Bias = prof.FaultBias
		fm := fault.New(fc)
		env := fault.NewEnv(fault.VHighFault, seed)
		faulty := make([]bool, n)
		stage := make([]isa.Stage, n)
		t = time.Now()
		for i := range insts {
			for s := isa.Fetch; s < isa.NumStages; s++ {
				if s == isa.Memory && !insts[i].Class.IsMem() {
					continue
				}
				nViol++
				if fm.Violates(insts[i].PC, s, env, uint64(i)) {
					faulty[i], stage[i] = true, s
				}
			}
		}
		viol += time.Since(t)

		tp := tep.New(pcfg.TEP)
		t = time.Now()
		for i := range insts {
			tp.Train(insts[i].PC, 0, faulty[i], stage[i])
		}
		train += time.Since(t)
		t = time.Now()
		for i := range insts {
			tp.Lookup(insts[i].PC, 0, true)
		}
		look += time.Since(t)

		// Issue select orders 32-entry candidate sets built as the issue
		// queue builds them — in allocation order, carrying the replayed
		// fault bits — so each policy does the reordering it would do there.
		const iq = 32
		sets := make([]core.Candidate, 0, n)
		for base := 0; base+iq <= n; base += iq {
			for k := 0; k < iq; k++ {
				i := base + k
				sets = append(sets, core.Candidate{Index: k, Timestamp: uint8(i) & core.TimestampMask,
					Faulty: faulty[i], Critical: i%4 == 0})
			}
		}
		buf := make([]core.Candidate, iq)
		for p, pol := range policies {
			t = time.Now()
			for base := 0; base < len(sets); base += iq {
				copy(buf, sets[base:base+iq])
				core.Order(pol, buf, uint8(base+iq)&core.TimestampMask)
			}
			order[p] += time.Since(t)
		}
		nOrder += len(sets) / iq
	}
	total := n * len(sz.benchmarks)
	perCall := func(d time.Duration, calls int) float64 { return ratio(float64(d), float64(calls)) }
	m["workload.next_ns"] = perCall(next, total)
	m["mem.inst_access_ns"] = perCall(inst, nInst)
	m["mem.data_access_ns"] = perCall(data, nData)
	m["mem.l1d_miss_ratio"] = ratio(float64(l1d.Misses), float64(l1d.Accesses))
	m["mem.l2_miss_ratio"] = ratio(float64(l2.Misses), float64(l2.Accesses))
	m["bpred.update_ns"] = perCall(upd, nBranch)
	m["bpred.mispredict_ratio"] = ratio(float64(mispredicts), float64(nBranch))
	m["tep.lookup_ns"] = perCall(look, total)
	m["tep.train_ns"] = perCall(train, total)
	m["fault.violates_ns"] = perCall(viol, nViol)
	m["core.order_abs_ns"] = perCall(order[0], nOrder)
	m["core.order_ffs_ns"] = perCall(order[1], nOrder)
	m["core.order_cds_ns"] = perCall(order[2], nOrder)

	// Per committed instruction the loop draws one instruction, evaluates its
	// stages, touches the caches and predictor at the replayed rates, and
	// looks up and trains the TEP under every scheme but Razor; once per
	// cycle it orders the ready candidates, an insertion sort over a nearly
	// age-sorted set whose cost grows linearly with its size.
	tepShare := 0.0
	for _, s := range sz.schemes {
		if s.UsesTEP() {
			tepShare++
		}
	}
	tepShare /= float64(len(sz.schemes))
	orderPerCycle := float64(order[0]+order[1]+order[2]) / 3 / float64(nOrder) * readyPerCycle / 32
	perInst := float64(next+inst+data+upd+viol)/float64(total) +
		tepShare*float64(look+train)/float64(total) + cyclesPerInst*orderPerCycle
	m["pipeline.self_ns_per_inst"] = m["pipeline.ns_per_inst"] - perInst
}

// importServerSpans reads every request's server-side spans back from the
// server's flight recorder and files them under the request, so one trace
// runs from the client's due time down to the session phases.
func (w *serveMixed) importServerSpans(ops []op) {
	tr := w.c.tr
	if _, _, evicted := w.srv.Tracer().Stats(); evicted > 0 {
		fmt.Fprintf(os.Stderr, "bench: the server's flight recorder evicted %d spans; serve layer times undercount\n", evicted)
	}
	for i := range ops {
		id, ok := obsspan.ParseTraceID(ops[i].reqID)
		if !ok {
			continue
		}
		for _, sp := range w.srv.Tracer().Trace(id) {
			name := serverSpan[sp.Name]
			if name == "" {
				name = "serve." + sp.Name
			}
			tr.add(name, i, ops[i].lane, sp.Start, sp.Start.Add(sp.Dur))
			tr.imported++
			if sp.Name == "simulate" {
				w.simulated++
				if sp.Attr("provenance") == "restored" {
					w.restored++
				}
			}
		}
	}
}

// serverSpan maps the server's span names onto the benchmark's layer
// vocabulary, so a session phase has one name on every workload.
var serverSpan = map[string]string{
	"warmup":           "sim.warmup",
	"snapshot_restore": "sim.restore",
	"measure":          "sim.run",
	"encode":           "sim.render",
	"store_lookup":     "store.lookup",
}

// layers adds serve-mixed's per-layer metrics: cache and store accounting
// from the responses and the server's registry, the server's span times,
// and a standalone store replay of the run's bodies.
func (w *serveMixed) layers(_ context.Context, ops []op, lt *layerTable, m map[string]float64) error {
	var hits, memHits, storeHits, ok int
	var hitLat, missLat, late []time.Duration
	for i := range ops {
		o := &ops[i]
		late = append(late, o.late)
		if o.err != nil {
			continue
		}
		ok++
		switch o.class {
		case "hit":
			hits++
			hitLat = append(hitLat, o.lat)
		case "shared":
			hits++
		case "miss":
			missLat = append(missLat, o.lat)
		}
		switch o.source {
		case "memory":
			memHits++
		case "store":
			storeHits++
		}
	}
	hitP50, _ := quantile(hitLat, 0.50)
	missP90, _ := quantile(missLat, 0.90)
	lateP99, _ := quantile(late, 0.99)
	m["serve.hit_ratio"] = ratio(float64(hits), float64(ok))
	m["serve.memory_hit_ratio"] = ratio(float64(memHits), float64(ok))
	m["serve.store_hit_ratio"] = ratio(float64(storeHits), float64(ok))
	m["serve.hit_p50_ms"] = ms(hitP50)
	m["serve.miss_p90_ms"] = ms(missP90)
	m["serve.cache_lookup_us"] = us(lt.mean("serve.cache_lookup"))
	m["serve.admission_us"] = us(lt.mean("serve.admission"))
	m["serve.queue_wait_ms"] = ms(lt.mean("serve.queue_wait"))
	m["serve.simulate_ms"] = ms(lt.mean("serve.simulate"))
	m["serve.restored_ratio"] = ratio(float64(w.restored), float64(w.simulated))
	m["loadgen.late_p99_ms"] = ms(lateP99)
	// Session construction is what a simulation does outside its phases:
	// the self time of simulate, and of a leader's snapshot production.
	m["sim.new_ms"] = ms(meanOf(lt.self("serve.simulate")+lt.self("serve.snapshot_produce"),
		lt.count("serve.simulate")+lt.count("serve.snapshot_produce")))

	d := func(a, b uint64) float64 { return float64(a - b) }
	m["serve.rejected"] = d(w.after.Outcomes[obs.ServeRejected], w.before.Outcomes[obs.ServeRejected])
	m["store.hits"] = d(w.after.StoreOps[obs.StoreHit], w.before.StoreOps[obs.StoreHit])
	m["store.misses"] = d(w.after.StoreOps[obs.StoreMiss], w.before.StoreOps[obs.StoreMiss])
	m["store.puts"] = d(w.after.StoreOps[obs.StorePut], w.before.StoreOps[obs.StorePut])

	getUs, putMs, err := w.storeReplay(ops)
	if err != nil {
		return err
	}
	m["store.get_us"], m["store.put_ms"] = getUs, putMs
	return nil
}

// storeReplay puts every distinct body of the run into a fresh store, alone,
// then reads each back: mean milliseconds per (fsynced) Put and microseconds
// per Get.
func (w *serveMixed) storeReplay(ops []op) (getUs, putMs float64, err error) {
	dir, err := os.MkdirTemp(w.c.tmp, "store-replay-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	bodies := map[string][]byte{}
	for i := range ops {
		if ops[i].err == nil {
			bodies[ops[i].cfg.Digest()] = ops[i].body
		}
	}
	start := time.Now()
	for digest, body := range bodies {
		if err := st.Put(digest, body); err != nil {
			return 0, 0, err
		}
	}
	put := time.Since(start)
	start = time.Now()
	for digest := range bodies {
		if _, ok, err := st.Get(digest); err != nil || !ok {
			return 0, 0, fmt.Errorf("store replay: get %.12s: ok=%v err=%v", digest, ok, err)
		}
	}
	get := time.Since(start)
	return us(meanOf(get, len(bodies))), ms(meanOf(put, len(bodies))), nil
}
