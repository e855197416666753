package workload

import (
	"strconv"

	"bolt/internal/sim"
	"bolt/internal/stats"
)

// v builds a pressure vector in canonical resource order:
// L1-i, L1-d, L2, LLC, MemCap, MemBW, CPU, NetBW, DiskCap, DiskBW.
func v(l1i, l1d, l2, llc, memc, membw, cpu, net, diskc, diskbw float64) sim.Vector {
	return sim.FromSlice([]float64{l1i, l1d, l2, llc, memc, membw, cpu, net, diskc, diskbw})
}

// loadAll marks every resource fully load-scaled except the capacity
// resources, which stay mostly resident while the app runs.
func loadAll() sim.Vector {
	lv := v(100, 100, 100, 100, 25, 100, 100, 100, 10, 100)
	return lv
}

// Generator builds application Specs for one class. The variant index
// selects a deterministic point in the class's parameter space (algorithm,
// dataset size, read/write mix, ...), so disjoint variant ranges yield
// disjoint training and test populations, as the paper requires.
type Generator struct {
	Class string
	Make  func(rng *stats.RNG, variant int) Spec
}

// jittered perturbs each entry of base by a zero-mean Gaussian with the
// given stddev, clamped to [0, 100].
func jitterred(rng *stats.RNG, base sim.Vector, sd float64) sim.Vector {
	var out sim.Vector
	for i := range base {
		out.Set(sim.Resource(i), base[i]+rng.Norm(0, sd))
	}
	return out
}

// pick returns element variant%len(xs) — a deterministic variant selector.
func pick[T any](xs []T, variant int) T {
	return xs[variant%len(xs)]
}

// Memcached builds a key-value cache Spec. Variants sweep the read:write
// ratio and value size; the signature profile is very high L1-i pressure,
// high LLC pressure, and zero disk traffic (Fig. 2).
func Memcached(rng *stats.RNG, variant int) Spec {
	rdPcts := []int{50, 70, 80, 90, 95, 99}
	sizes := []string{"B", "KB", "MB"}
	rd := pick(rdPcts, variant)
	size := pick(sizes, variant/len(rdPcts))

	base := v(88, 58, 28, 75, 42, 48, 34, 60, 0, 0)
	// Write-heavier loads touch more data; bigger values shift pressure
	// from instruction fetch toward memory and network bandwidth.
	base.Set(sim.L1D, base.Get(sim.L1D)+float64(100-rd)*0.25)
	base.Set(sim.MemBW, base.Get(sim.MemBW)+float64(100-rd)*0.2)
	switch size {
	case "MB":
		base.Set(sim.NetBW, base.Get(sim.NetBW)+22)
		base.Set(sim.MemBW, base.Get(sim.MemBW)+15)
		base.Set(sim.L1I, base.Get(sim.L1I)-12)
	case "B":
		base.Set(sim.L1I, base.Get(sim.L1I)+6)
		base.Set(sim.NetBW, base.Get(sim.NetBW)-12)
	}
	return Spec{
		Label:      "memcached:rd" + strconv.Itoa(rd) + ":" + size,
		Class:      "memcached",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.04,
	}
}

// Hadoop builds a disk-bound MapReduce analytics Spec. Variants sweep the
// algorithm and dataset size; profiles range from CPU-lean wordcount on
// small data to memory- and cache-hungry recommenders on large data
// (Fig. 5).
func Hadoop(rng *stats.RNG, variant int) Spec {
	algos := []string{"wordcount", "grep", "sort", "svm", "kmeans", "naivebayes", "recommender", "pagerank"}
	sizes := []string{"S", "M", "L"}
	algo := pick(algos, variant)
	size := pick(sizes, variant/len(algos))

	var base sim.Vector
	switch algo {
	case "wordcount":
		base = v(26, 35, 30, 30, 32, 34, 58, 38, 70, 74)
	case "grep":
		base = v(30, 28, 26, 24, 22, 28, 72, 30, 78, 62)
	case "sort":
		base = v(24, 40, 34, 38, 46, 55, 48, 52, 85, 85)
	case "svm":
		base = v(35, 50, 42, 52, 48, 46, 86, 30, 60, 48)
	case "kmeans":
		base = v(32, 55, 44, 58, 55, 62, 74, 34, 66, 52)
	case "naivebayes":
		base = v(42, 46, 38, 44, 40, 40, 78, 40, 72, 62)
	case "recommender":
		base = v(38, 55, 46, 60, 70, 58, 70, 40, 80, 68)
	case "pagerank":
		base = v(34, 58, 50, 72, 66, 72, 64, 48, 68, 56)
	}
	switch size {
	case "S":
		base = base.Scale(0.72)
	case "L":
		base = base.Scale(1.18)
	}
	return Spec{
		Label:      "hadoop:" + algo + ":" + size,
		Class:      "hadoop",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.05,
	}
}

// Spark builds an in-memory analytics Spec: memory capacity and bandwidth
// dominate, disk traffic is low.
func Spark(rng *stats.RNG, variant int) Spec {
	algos := []string{"kmeans", "pagerank", "logistic", "svm", "als", "streaming"}
	sizes := []string{"S", "M", "L"}
	algo := pick(algos, variant)
	size := pick(sizes, variant/len(algos))

	var base sim.Vector
	switch algo {
	case "kmeans":
		base = v(40, 54, 40, 68, 84, 86, 60, 30, 18, 14)
	case "pagerank":
		base = v(36, 58, 46, 80, 86, 92, 52, 36, 16, 10)
	case "logistic":
		base = v(42, 50, 36, 58, 76, 72, 80, 26, 14, 10)
	case "svm":
		base = v(38, 46, 40, 64, 70, 64, 88, 22, 12, 8)
	case "als":
		base = v(34, 60, 44, 76, 90, 84, 62, 30, 24, 18)
	case "streaming":
		base = v(44, 48, 34, 56, 60, 70, 58, 66, 20, 22)
	}
	switch size {
	case "S":
		base = base.Scale(0.75)
	case "L":
		base = base.Scale(1.15)
	}
	return Spec{
		Label:      "spark:" + algo + ":" + size,
		Class:      "spark",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.05,
	}
}

// Cassandra builds a wide-column store Spec: mixed disk and network
// pressure with a warm cache footprint.
func Cassandra(rng *stats.RNG, variant int) Spec {
	mixes := []string{"rd", "wr", "mixed", "scan"}
	mix := pick(mixes, variant)

	var base sim.Vector
	switch mix {
	case "rd":
		base = v(62, 54, 38, 66, 56, 44, 40, 66, 52, 44)
	case "wr":
		base = v(52, 50, 42, 48, 50, 58, 46, 50, 66, 76)
	case "mixed":
		base = v(58, 52, 40, 56, 52, 46, 42, 55, 62, 58)
	default: // scan
		base = v(42, 56, 46, 50, 58, 52, 50, 40, 82, 82)
	}
	return Spec{
		Label:      "cassandra:" + mix,
		Class:      "cassandra",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.04,
	}
}

// SpecCPU builds a SPEC CPU2006-style single-core benchmark Spec: purely
// core and memory pressure, no network or disk.
func SpecCPU(rng *stats.RNG, variant int) Spec {
	benchmarks := []struct {
		name string
		base sim.Vector
	}{
		{"mcf", v(30, 72, 58, 82, 58, 88, 62, 0, 0, 0)},
		{"lbm", v(22, 66, 50, 74, 64, 92, 58, 0, 0, 0)},
		{"milc", v(26, 62, 52, 70, 60, 84, 66, 0, 0, 0)},
		{"libquantum", v(18, 58, 62, 78, 40, 90, 55, 0, 0, 0)},
		{"gcc", v(62, 55, 48, 52, 38, 42, 72, 0, 2, 3)},
		{"perlbench", v(70, 52, 44, 46, 32, 36, 78, 0, 1, 2)},
		{"gobmk", v(58, 48, 40, 34, 22, 26, 85, 0, 0, 0)},
		{"soplex", v(34, 60, 50, 68, 52, 72, 66, 0, 1, 1)},
		{"bzip2", v(30, 56, 46, 48, 36, 52, 80, 0, 4, 6)},
		{"leslie3d", v(24, 64, 54, 72, 56, 86, 60, 0, 0, 0)},
	}
	b := pick(benchmarks, variant)
	return Spec{
		Label:      "speccpu:" + b.name,
		Class:      "speccpu",
		Base:       jitterred(rng, b.base, 2.5),
		LoadScaled: loadAll(),
		Jitter:     0.03,
	}
}

// Webserver builds an HTTP-serving Spec: very large instruction footprint
// and high network bandwidth.
func Webserver(rng *stats.RNG, variant int) Spec {
	kinds := []string{"static", "dynamic", "api"}
	kind := pick(kinds, variant)

	base := v(90, 48, 38, 50, 30, 34, 52, 74, 8, 10)
	switch kind {
	case "dynamic":
		base.Set(sim.CPU, 70)
		base.Set(sim.L1D, 56)
	case "api":
		base.Set(sim.NetBW, 82)
		base.Set(sim.CPU, 60)
	}
	return Spec{
		Label:      "webserver:" + kind,
		Class:      "webserver",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.05,
	}
}

// SQLDatabase builds an OLTP relational database Spec (MySQL/Postgres
// flavoured by variant).
func SQLDatabase(rng *stats.RNG, variant int) Spec {
	engines := []string{"mysql", "postgres"}
	mixes := []string{"oltp", "olap", "mixed"}
	engine := pick(engines, variant)
	mix := pick(mixes, variant/len(engines))

	var base sim.Vector
	switch mix {
	case "oltp":
		base = v(68, 56, 44, 62, 46, 38, 46, 52, 50, 44)
	case "olap":
		base = v(52, 60, 48, 54, 56, 62, 64, 34, 70, 74)
	default: // mixed
		base = v(60, 56, 46, 58, 50, 48, 54, 44, 60, 60)
	}
	// The engines have recognisably different footprints: MySQL (InnoDB)
	// leans on the buffer pool and disk, Postgres on per-backend compute
	// and memory bandwidth.
	if engine == "postgres" {
		base.Set(sim.CPU, base.Get(sim.CPU)+14)
		base.Set(sim.MemBW, base.Get(sim.MemBW)+12)
		base.Set(sim.DiskBW, base.Get(sim.DiskBW)-10)
		base.Set(sim.L1I, base.Get(sim.L1I)-12)
	} else {
		base.Set(sim.DiskCap, base.Get(sim.DiskCap)+10)
		base.Set(sim.LLC, base.Get(sim.LLC)+8)
	}
	return Spec{
		Label:      engine + ":" + mix,
		Class:      engine,
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.04,
	}
}

// MongoDB builds a document-store Spec.
func MongoDB(rng *stats.RNG, variant int) Spec {
	mixes := []string{"rd", "wr", "agg"}
	mix := pick(mixes, variant)
	var base sim.Vector
	switch mix {
	case "rd":
		base = v(64, 54, 40, 60, 58, 42, 40, 58, 58, 42)
	case "wr":
		base = v(52, 50, 44, 46, 54, 52, 48, 44, 74, 70)
	default: // agg
		base = v(56, 58, 46, 54, 62, 64, 64, 40, 62, 50)
	}
	return Spec{
		Label:      "mongodb:" + mix,
		Class:      "mongodb",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.04,
	}
}

// Redis builds an in-memory store Spec, close to memcached but with
// persistence traffic.
func Redis(rng *stats.RNG, variant int) Spec {
	base := v(82, 56, 30, 70, 48, 50, 36, 58, 12, 16)
	return Spec{
		Label:      "redis:v" + strconv.Itoa(variant%4),
		Class:      "redis",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.04,
	}
}

// Storm builds a stream-processing Spec: network-bound with steady CPU.
func Storm(rng *stats.RNG, variant int) Spec {
	base := v(44, 48, 38, 50, 46, 52, 62, 76, 12, 14)
	return Spec{
		Label:      "storm:topology" + strconv.Itoa(variant%4),
		Class:      "storm",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.05,
	}
}

// GraphAnalytics builds a graph-processing Spec (GraphX flavoured):
// cache/memory-latency bound with bursty bandwidth.
func GraphAnalytics(rng *stats.RNG, variant int) Spec {
	base := v(36, 58, 50, 74, 66, 70, 58, 36, 30, 24)
	return Spec{
		Label:      "graphx:workload" + strconv.Itoa(variant%4),
		Class:      "graph",
		Base:       jitterred(rng, base, 3),
		LoadScaled: loadAll(),
		Jitter:     0.05,
	}
}

// Generators returns the class generators used for both training and test
// populations, in a stable order.
func Generators() []Generator {
	return []Generator{
		{"memcached", Memcached},
		{"hadoop", Hadoop},
		{"spark", Spark},
		{"cassandra", Cassandra},
		{"speccpu", SpecCPU},
		{"webserver", Webserver},
		{"sql", SQLDatabase}, // yields class "mysql" or "postgres" per variant
		{"mongodb", MongoDB},
		{"redis", Redis},
		{"storm", Storm},
		{"graph", GraphAnalytics},
	}
}

// TrainingSetSize is the number of applications in the paper's training set.
const TrainingSetSize = 120

// TrainingSpecs generates the 120-application training set. The paper
// selects training workloads "to provide sufficient coverage of the space
// of resource characteristics" (Fig. 4), so the set sweeps every class and
// algorithm family; individual instances carry their own dataset-dependent
// jitter.
func TrainingSpecs(seed uint64) []Spec {
	rng := stats.NewRNG(seed)
	gens := Generators()
	specs := make([]Spec, 0, TrainingSetSize)
	for i := 0; len(specs) < TrainingSetSize; i++ {
		g := gens[i%len(gens)]
		specs = append(specs, g.Make(rng.Split(), i/len(gens)))
	}
	return specs
}

// VictimSpecs generates n test applications. Per §3.4 training and test
// populations share no instance: victims draw from an independent jitter
// stream (different datasets) and a shifted parameter cycle (different
// configurations and input loads). Labels name workload types and may
// recur across the populations — the type is exactly what Bolt detects.
func VictimSpecs(seed uint64, n int) []Spec {
	rng := stats.NewRNG(seed ^ 0x5eed7e57)
	gens := Generators()
	specs := make([]Spec, 0, n)
	for i := 0; len(specs) < n; i++ {
		g := gens[i%len(gens)]
		specs = append(specs, g.Make(rng.Split(), i/len(gens)+1))
	}
	return specs
}

// DefaultPattern returns a plausible load pattern for the class: diurnal or
// bursty for interactive services, flat batch ramps for analytics, constant
// for CPU benchmarks. The rng picks phase offsets so co-scheduled services
// do not peak in lockstep.
func DefaultPattern(class string, rng *stats.RNG) LoadPattern {
	switch class {
	case "memcached", "redis", "webserver", "sql", "mongodb", "cassandra":
		if rng.Bool(0.5) {
			return Diurnal{
				Min:    rng.Range(0.15, 0.4),
				Max:    rng.Range(0.8, 1.0),
				Period: sim.Tick(rng.Range(300, 1200)),
				Phase:  rng.Float64(),
			}
		}
		return Bursty{
			OnLevel:  rng.Range(0.75, 1.0),
			OffLevel: rng.Range(0.05, 0.3),
			OnTicks:  sim.Tick(rng.Range(50, 300)),
			OffTicks: sim.Tick(rng.Range(20, 150)),
			Offset:   sim.Tick(rng.Intn(200)),
		}
	case "hadoop", "spark", "graph", "speccpu":
		return Batch{Ramp: sim.Tick(rng.Range(10, 60)), Level: rng.Range(0.85, 1.0)}
	default:
		return Constant{Level: rng.Range(0.7, 1.0)}
	}
}
