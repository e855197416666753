// Package study generates the synthetic counterpart of the paper's EC2
// user study (§4): 20 users submitting 436 jobs of 53 application types
// onto a 200-instance cluster over four hours, with Bolt holding a 4-vCPU
// VM on every instance. The paper's real study is irreproducible (it needs
// EC2 and twenty humans); this generator reproduces its statistical
// structure — the mix of trainable and never-seen application types, the
// per-user type preferences, 1-6 concurrently active jobs per instance,
// and instances that stay idle — so the detection-accuracy experiment of
// Fig. 12 exercises the same code paths.
package study

import (
	"fmt"

	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// AppType is one of the 53 application types of Fig. 11.
type AppType struct {
	ID   int    // 1-53, matching the figure's labels
	Name string // the figure's label text
	// Weight is the relative launch frequency (the figure's occurrence
	// histogram shape: analytics frameworks dominate, utilities are rare).
	Weight float64
	// Trainable marks types whose class exists in Bolt's training set; the
	// rest can at best be characterised, never labelled (§4: email clients
	// and image editors were never seen before).
	Trainable bool
	// Make builds a Spec for one job of this type.
	Make func(rng *stats.RNG, variant int) workload.Spec
}

// custom builds a generator for a type outside the training catalog.
func custom(name string, base sim.Vector, jitter float64) func(*stats.RNG, int) workload.Spec {
	return func(rng *stats.RNG, variant int) workload.Spec {
		var b sim.Vector
		for i := range base {
			b.Set(sim.Resource(i), base[i]+rng.Norm(0, 3))
		}
		var ls sim.Vector
		for i := range ls {
			ls[i] = 100
		}
		return workload.Spec{
			Label:      fmt.Sprintf("%s:j%d", name, variant),
			Class:      name,
			Base:       b,
			LoadScaled: ls,
			Jitter:     jitter,
		}
	}
}

// cv builds a vector in canonical resource order.
func cv(l1i, l1d, l2, llc, memc, membw, cpu, net, diskc, diskbw float64) sim.Vector {
	return sim.FromSlice([]float64{l1i, l1d, l2, llc, memc, membw, cpu, net, diskc, diskbw})
}

// Types returns the 53 application types, IDs matching Fig. 11.
func Types() []AppType {
	t := []AppType{
		{1, "hadoop", 34, true, workload.Hadoop},
		{2, "spark", 30, true, workload.Spark},
		{3, "email", 10, false, custom("email", cv(30, 18, 12, 14, 18, 8, 10, 22, 18, 10), 0.1)},
		{4, "browser", 12, false, custom("browser", cv(48, 30, 20, 28, 34, 18, 26, 38, 8, 6), 0.12)},
		{5, "cadence", 6, false, custom("cadence", cv(40, 52, 44, 52, 68, 48, 82, 4, 34, 26), 0.05)},
		{6, "zsim", 7, false, custom("zsim", cv(36, 58, 48, 62, 72, 66, 88, 2, 12, 10), 0.04)},
		{7, "video", 9, false, custom("video", cv(26, 38, 28, 34, 30, 40, 45, 68, 8, 12), 0.06)},
		{8, "latex", 6, false, custom("latex", cv(44, 30, 22, 22, 20, 16, 38, 2, 16, 14), 0.1)},
		{9, "MLPython", 11, false, custom("MLPython", cv(30, 52, 42, 56, 62, 58, 76, 8, 24, 18), 0.06)},
		{10, "make", 9, false, custom("make", cv(52, 36, 28, 30, 28, 26, 66, 2, 38, 34), 0.08)},
		{11, "mem$d", 14, true, workload.Memcached},
		{12, "http server", 13, true, workload.Webserver},
		{13, "spec", 16, true, workload.SpecCPU},
		{14, "matlab", 8, false, custom("matlab", cv(28, 50, 40, 52, 58, 54, 74, 2, 14, 10), 0.05)},
		{15, "mysql", 9, true, func(rng *stats.RNG, v int) workload.Spec { return workload.SQLDatabase(rng, v*2) }},
		{16, "vivado", 5, false, custom("vivado", cv(38, 48, 42, 50, 64, 46, 84, 2, 30, 22), 0.05)},
		{17, "parsec", 7, false, custom("parsec", cv(34, 54, 44, 58, 52, 62, 80, 2, 6, 6), 0.05)},
		{18, "vim", 5, false, custom("vim", cv(24, 12, 8, 8, 8, 4, 6, 2, 6, 4), 0.15)},
		{19, "scala", 6, false, custom("scala", cv(42, 40, 32, 40, 44, 36, 62, 6, 14, 10), 0.07)},
		{20, "php", 5, false, custom("php", cv(56, 36, 26, 32, 26, 22, 48, 30, 10, 8), 0.08)},
		{21, "postgres", 8, true, func(rng *stats.RNG, v int) workload.Spec { return workload.SQLDatabase(rng, v*2+1) }},
		{22, "musicStream", 6, false, custom("musicStream", cv(22, 22, 16, 20, 18, 22, 18, 56, 6, 10), 0.08)},
		{23, "minebench", 4, false, custom("minebench", cv(32, 50, 42, 54, 50, 56, 78, 2, 28, 24), 0.05)},
		{24, "n-body sim", 5, false, custom("n-body sim", cv(22, 56, 48, 60, 56, 72, 84, 2, 4, 4), 0.04)},
		{25, "ppt", 3, false, custom("ppt", cv(30, 20, 14, 16, 22, 10, 16, 4, 10, 8), 0.12)},
		{26, "OS img", 3, false, custom("OS img", cv(14, 22, 16, 18, 20, 30, 28, 10, 72, 66), 0.06)},
		{27, "pdfview", 3, false, custom("pdfview", cv(28, 18, 12, 14, 16, 8, 12, 2, 10, 6), 0.12)},
		{28, "scons", 4, false, custom("scons", cv(48, 34, 26, 28, 26, 24, 62, 2, 34, 32), 0.08)},
		{29, "du -h", 2, false, custom("du -h", cv(10, 12, 8, 8, 6, 6, 14, 0, 46, 40), 0.1)},
		{30, "cr/del cgroup", 2, false, custom("cr/del cgroup", cv(12, 10, 6, 6, 6, 4, 10, 0, 8, 6), 0.12)},
		{31, "bioparallel", 4, false, custom("bioparallel", cv(28, 52, 44, 56, 54, 60, 80, 4, 22, 18), 0.05)},
		{32, "storm", 7, true, workload.Storm},
		{33, "cpu burn", 4, false, custom("cpu burn", cv(18, 20, 14, 12, 6, 8, 96, 0, 0, 0), 0.02)},
		{34, "audacity", 3, false, custom("audacity", cv(24, 30, 20, 24, 26, 28, 40, 2, 20, 18), 0.08)},
		{35, "javascript", 4, false, custom("javascript", cv(46, 32, 22, 28, 30, 22, 44, 18, 6, 4), 0.1)},
		{36, "create VMs", 3, false, custom("create VMs", cv(18, 24, 16, 20, 38, 28, 34, 8, 52, 48), 0.07)},
		{37, "html", 3, false, custom("html", cv(34, 20, 14, 16, 14, 10, 18, 12, 8, 6), 0.1)},
		{38, "cassandra", 9, true, workload.Cassandra},
		{39, "mongoDB", 7, true, workload.MongoDB},
		{40, "mkdir", 2, false, custom("mkdir", cv(8, 8, 4, 4, 4, 2, 6, 0, 14, 10), 0.15)},
		{41, "cp/mv", 3, false, custom("cp/mv", cv(10, 14, 10, 10, 8, 18, 16, 0, 56, 62), 0.08)},
		{42, "sirius", 4, false, custom("sirius", cv(44, 46, 36, 48, 50, 44, 66, 34, 14, 10), 0.06)},
		{43, "oProfile", 3, false, custom("oProfile", cv(30, 28, 22, 24, 22, 20, 38, 2, 26, 22), 0.08)},
		{44, "dwnld LF", 3, false, custom("dwnld LF", cv(8, 12, 8, 10, 10, 20, 12, 74, 40, 52), 0.07)},
		{45, "rsync", 3, false, custom("rsync", cv(12, 16, 10, 12, 10, 22, 20, 52, 44, 54), 0.07)},
		{46, "ping", 2, false, custom("ping", cv(6, 6, 4, 4, 2, 2, 4, 18, 0, 0), 0.15)},
		{47, "photoshop", 3, false, custom("photoshop", cv(30, 44, 34, 44, 52, 46, 58, 4, 22, 16), 0.08)},
		{48, "ssh", 3, false, custom("ssh", cv(16, 10, 6, 8, 6, 4, 8, 16, 2, 2), 0.12)},
		{49, "rm", 2, false, custom("rm", cv(8, 8, 6, 6, 4, 4, 8, 0, 20, 26), 0.12)},
		{50, "skype", 3, false, custom("skype", cv(22, 20, 14, 18, 18, 18, 28, 48, 4, 4), 0.1)},
		{51, "zipkin", 3, false, custom("zipkin", cv(36, 32, 24, 30, 34, 28, 38, 40, 26, 22), 0.08)},
		{52, "graphX", 7, true, workload.GraphAnalytics},
		{53, "ix", 3, false, custom("ix", cv(52, 38, 26, 40, 28, 30, 44, 72, 2, 2), 0.05)},
	}
	return t
}

// Job is one submitted application in the study.
type Job struct {
	User     int // 0-19
	Type     AppType
	Spec     workload.Spec
	VCPUs    int
	Start    sim.Tick // submission time
	Duration sim.Tick // lifetime; jobs end and free their slots
	Pattern  workload.LoadPattern
}

// Config shapes the generated study.
type Config struct {
	Users     int      // 0 means 20
	Jobs      int      // 0 means 436
	Instances int      // 0 means 200
	Span      sim.Tick // study length; 0 means 4 hours
	Seed      uint64
}

func (c Config) withDefaults() Config {
	if c.Users == 0 {
		c.Users = 20
	}
	if c.Jobs == 0 {
		c.Jobs = 436
	}
	if c.Instances == 0 {
		c.Instances = 200
	}
	if c.Span == 0 {
		c.Span = 4 * 3600 * sim.TicksPerSecond
	}
	return c
}

// Study is a generated user study.
type Study struct {
	Config Config
	Jobs   []Job
}

// Generate builds a study: every user gets a preference distribution over
// a random subset of types, then jobs are drawn user by user with
// arrival times spread over the span.
func Generate(cfg Config) *Study {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed ^ 0x57add1e5)
	types := Types()

	// Per-user preferences: each user favours 4-10 types, weighted by the
	// global occurrence shape.
	prefs := make([][]float64, cfg.Users)
	for u := range prefs {
		w := make([]float64, len(types))
		nFav := 4 + rng.Intn(7)
		for i := 0; i < nFav; i++ {
			ti := rng.Choose(globalWeights(types))
			w[ti] += types[ti].Weight
		}
		prefs[u] = w
	}

	s := &Study{Config: cfg}
	for j := 0; j < cfg.Jobs; j++ {
		u := j % cfg.Users // all users submit; counts vary via extra draws
		if rng.Bool(0.3) {
			u = rng.Intn(cfg.Users)
		}
		ti := rng.Choose(prefs[u])
		typ := types[ti]
		spec := typ.Make(rng.Split(), rng.Intn(24))
		start := sim.Tick(rng.Range(0, float64(cfg.Span)*0.8))
		dur := sim.Tick(rng.Range(float64(cfg.Span)*0.1, float64(cfg.Span)*0.5))
		s.Jobs = append(s.Jobs, Job{
			User:     u,
			Type:     typ,
			Spec:     spec,
			VCPUs:    1 + rng.Intn(8),
			Start:    start,
			Duration: dur,
			Pattern:  workload.DefaultPattern(spec.Class, rng.Split()),
		})
	}
	return s
}

func globalWeights(types []AppType) []float64 {
	w := make([]float64, len(types))
	for i, t := range types {
		w[i] = t.Weight
	}
	return w
}

// OccurrencePDF tallies launches per type ID (Fig. 11).
func (s *Study) OccurrencePDF() *stats.Counter {
	c := stats.NewCounter()
	for _, j := range s.Jobs {
		c.Add(fmt.Sprintf("%02d:%s", j.Type.ID, j.Type.Name))
	}
	return c
}
