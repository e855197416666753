package sim

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

// fixedApp is a Demander with constant demand and sensitivity.
type fixedApp struct {
	demand Vector
	sens   Vector
}

func (f fixedApp) Demand(Tick) Vector                            { return f.demand }
func (f fixedApp) DemandInto(_ Tick, out *Vector, _ ResourceSet) { *out = f.demand }
func (f fixedApp) Sensitivity() Vector                           { return f.sens }

func vec(vals map[Resource]float64) Vector {
	var v Vector
	for r, x := range vals {
		v.Set(r, x)
	}
	return v
}

func newVM(id string, vcpus int, demand Vector) *VM {
	var sens Vector
	for i := range demand {
		sens[i] = demand[i] / 100
	}
	return &VM{ID: id, VCPUs: vcpus, App: fixedApp{demand: demand, sens: sens}}
}

func TestResourceString(t *testing.T) {
	if L1I.String() != "L1-i" || DiskBW.String() != "DiskBW" {
		t.Fatal("resource names wrong")
	}
	if Resource(99).String() != "Resource(99)" {
		t.Fatal("out-of-range name wrong")
	}
}

func TestCoreUncorePartition(t *testing.T) {
	core, uncore := CoreResources(), UncoreResources()
	if len(core)+len(uncore) != NumResources {
		t.Fatal("core + uncore must cover all resources")
	}
	for _, r := range core {
		if !r.IsCore() {
			t.Fatalf("%v should be core", r)
		}
	}
	for _, r := range uncore {
		if r.IsCore() {
			t.Fatalf("%v should be uncore", r)
		}
	}
}

func TestVectorClamping(t *testing.T) {
	var v Vector
	v.Set(CPU, 150)
	v.Set(LLC, -10)
	if v.Get(CPU) != 100 || v.Get(LLC) != 0 {
		t.Fatal("Set should clamp to [0,100]")
	}
}

func TestVectorAddScale(t *testing.T) {
	a := vec(map[Resource]float64{CPU: 60, LLC: 70})
	b := vec(map[Resource]float64{CPU: 60, MemBW: 30})
	sum := a
	sum.accumulate(&b, EveryResource)
	if sum.Get(CPU) != 100 || sum.Get(LLC) != 70 || sum.Get(MemBW) != 30 {
		t.Fatalf("accumulate wrong: %v", sum)
	}
	part := a
	part.accumulate(&b, 1<<MemBW)
	if part.Get(CPU) != 60 || part.Get(LLC) != 70 || part.Get(MemBW) != 30 {
		t.Fatalf("accumulate over {MemBW} wrong: %v", part)
	}
	half := a.Scale(0.5)
	if half.Get(CPU) != 30 || half.Get(LLC) != 35 {
		t.Fatalf("Scale wrong: %v", half)
	}
}

func TestVectorDominantTopK(t *testing.T) {
	v := vec(map[Resource]float64{L1I: 80, LLC: 95, MemBW: 60})
	if v.Dominant() != LLC {
		t.Fatalf("Dominant = %v, want LLC", v.Dominant())
	}
	top := v.TopK(3)
	if top[0] != LLC || top[1] != L1I || top[2] != MemBW {
		t.Fatalf("TopK = %v", top)
	}
}

func TestVectorSliceRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		var v Vector
		x := seed
		for i := range v {
			x = x*6364136223846793005 + 1442695040888963407
			v[i] = float64(uint64(x) % 101)
		}
		return FromSlice(v.Slice()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTickSeconds(t *testing.T) {
	if Tick(10).Seconds() != 1 {
		t.Fatalf("10 ticks should be 1 s, got %v", Tick(10).Seconds())
	}
}

func TestPlaceAndCapacity(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	if s.TotalVCPUs() != 16 {
		t.Fatalf("default server should have 16 vCPUs, got %d", s.TotalVCPUs())
	}
	vm := newVM("a", 4, Vector{})
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	if s.FreeVCPUs() != 12 {
		t.Fatalf("FreeVCPUs = %d, want 12", s.FreeVCPUs())
	}
	if len(vm.Slots()) != 4 {
		t.Fatalf("VM got %d slots, want 4", len(vm.Slots()))
	}
	// Breadth-first placement spreads 4 hyperthreads over 4 cores.
	if len(vm.Cores()) != 4 {
		t.Fatalf("VM spans %d cores, want 4", len(vm.Cores()))
	}
}

func TestPlaceOverCapacity(t *testing.T) {
	s := NewServer("s0", ServerConfig{Cores: 2, ThreadsPerCore: 2})
	if err := s.Place(newVM("a", 5, Vector{})); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	if len(s.VMs()) != 0 {
		t.Fatal("failed placement must not register the VM")
	}
}

func TestPlaceDuplicateID(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	if err := s.Place(newVM("a", 1, Vector{})); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(newVM("a", 1, Vector{})); err == nil {
		t.Fatal("duplicate ID placement should fail")
	}
}

func TestPlaceZeroVCPUs(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	if err := s.Place(newVM("a", 0, Vector{})); err == nil {
		t.Fatal("zero-vCPU placement should fail")
	}
}

func TestRemoveFreesSlots(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	vm := newVM("a", 6, Vector{})
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	if !s.Remove("a") {
		t.Fatal("Remove returned false")
	}
	if s.FreeVCPUs() != 16 {
		t.Fatalf("slots not freed: %d free", s.FreeVCPUs())
	}
	if s.Remove("a") {
		t.Fatal("second Remove should return false")
	}
}

// TestPlaceAllocs pins what placing a fresh VM allocates: nothing. Its
// placement is two words in the VM, and the server's VM list is carved at
// its final capacity. The VMs are built up front and removed after each
// run, so only Place and Remove count.
func TestPlaceAllocs(t *testing.T) {
	for _, cfg := range []ServerConfig{{}, {DedicatedCores: true}} {
		s := NewServer("s0", cfg)
		for vcpus := 1; vcpus <= 6; vcpus++ {
			vms := make([]*VM, 101) // AllocsPerRun's warm-up run plus 100
			for i := range vms {
				vms[i] = newVM("a", vcpus, Vector{})
			}
			next := 0
			allocs := testing.AllocsPerRun(100, func() {
				vm := vms[next]
				next++
				if err := s.Place(vm); err != nil {
					t.Fatal(err)
				}
				s.Remove(vm.ID)
			})
			if allocs != 0 {
				t.Fatalf("dedicated=%v vcpus=%d: Place allocates %v objects, want 0", cfg.DedicatedCores, vcpus, allocs)
			}
		}
	}
}

// TestNewServerThreadLimit pins the slot mask's reach: a host of 64
// hyperthreads, in any shape, builds and fills completely, and NewServer
// panics at 65.
func TestNewServerThreadLimit(t *testing.T) {
	for _, cfg := range []ServerConfig{{Cores: 32, ThreadsPerCore: 2}, {Cores: 64, ThreadsPerCore: 1}, {Cores: 1, ThreadsPerCore: 64}, {Cores: 16, ThreadsPerCore: 4, DedicatedCores: true}} {
		s := NewServer("s0", cfg)
		if s.TotalVCPUs() != 64 || s.FreeVCPUs() != 64 {
			t.Fatalf("%+v: %d threads, %d free, want 64 and 64", cfg, s.TotalVCPUs(), s.FreeVCPUs())
		}
		a, b := newVM("a", 63, Vector{}), newVM("b", 1, Vector{})
		if err := s.Place(a); err != nil {
			t.Fatalf("%+v: placing 63 vCPUs: %v", cfg, err)
		}
		// Under DedicatedCores a's last core is whole, so its 64th thread
		// is burned.
		if err := s.Place(b); (err != nil) != cfg.DedicatedCores {
			t.Fatalf("%+v: placing the 64th vCPU: %v", cfg, err)
		}
		if s.FreeVCPUs() != 0 || len(a.Slots()) != 63 {
			t.Fatalf("%+v: %d free, a holds %v", cfg, s.FreeVCPUs(), a.Slots())
		}
		s.Remove("a")
		s.Remove("b")
		if s.FreeVCPUs() != 64 {
			t.Fatalf("%+v: %d free after removing everything, want 64", cfg, s.FreeVCPUs())
		}
	}
	for _, cfg := range []ServerConfig{{Cores: 65, ThreadsPerCore: 1}, {Cores: 13, ThreadsPerCore: 5}, {Cores: 33}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%+v: NewServer built a host of more than 64 hyperthreads", cfg)
				}
			}()
			NewServer("s0", cfg)
		}()
	}
}

func TestSharesCore(t *testing.T) {
	// Breadth-first on a 2-core host: a→(0,0), b→(1,0), c→(0,1)+(1,1).
	s := NewServer("s0", ServerConfig{Cores: 2, ThreadsPerCore: 2})
	a := newVM("a", 1, Vector{})
	b := newVM("b", 1, Vector{})
	c := newVM("c", 2, Vector{})
	for _, vm := range []*VM{a, b, c} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if s.SharesCore(a, b) {
		t.Fatal("a and b sit on different cores")
	}
	if !s.SharesCore(a, c) || !s.SharesCore(b, c) {
		t.Fatal("c's second hyperthreads share cores with a and b")
	}
	if s.SharesCore(a, a) {
		t.Fatal("a VM does not share a core with itself")
	}
}

func TestDedicatedCoresPlacement(t *testing.T) {
	s := NewServer("s0", ServerConfig{Cores: 4, ThreadsPerCore: 2, DedicatedCores: true})
	a := newVM("a", 3, Vector{}) // needs 2 whole cores (4 threads reserved)
	if err := s.Place(a); err != nil {
		t.Fatal(err)
	}
	if s.FreeVCPUs() != 4 {
		t.Fatalf("dedicated placement should reserve whole cores: %d free, want 4", s.FreeVCPUs())
	}
	b := newVM("b", 1, Vector{})
	if err := s.Place(b); err != nil {
		t.Fatal(err)
	}
	if s.SharesCore(a, b) {
		t.Fatal("dedicated cores must never be shared")
	}
	// Remaining whole core is taken; a 3-vCPU VM no longer fits.
	if err := s.Place(newVM("c", 3, Vector{})); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
}

func TestObservedPressureCoreVsUncore(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	adv := newVM("adv", 2, Vector{}) // core 0
	victim := newVM("v", 2, vec(map[Resource]float64{
		L1I: 80, LLC: 70, MemBW: 50,
	})) // core 1: no shared core with adv
	if err := s.Place(adv); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(victim); err != nil {
		t.Fatal(err)
	}
	if got := s.ObservedPressure(adv, L1I, 0); got != 0 {
		t.Fatalf("core pressure across cores should be invisible, got %v", got)
	}
	if got := s.ObservedPressure(adv, LLC, 0); got != 70 {
		t.Fatalf("LLC pressure = %v, want 70", got)
	}
	if got := s.ObservedPressure(adv, MemBW, 0); got != 50 {
		t.Fatalf("MemBW pressure = %v, want 50", got)
	}
}

func TestObservedPressureSharedCore(t *testing.T) {
	// A single-core host forces the two VMs onto sibling hyperthreads.
	s := NewServer("s0", ServerConfig{Cores: 1, ThreadsPerCore: 2})
	adv := newVM("adv", 1, Vector{})
	victim := newVM("v", 1, vec(map[Resource]float64{L1I: 80}))
	if err := s.Place(adv); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(victim); err != nil {
		t.Fatal(err)
	}
	if !s.SharesCore(adv, victim) {
		t.Fatal("test setup: expected shared core")
	}
	if got := s.ObservedPressure(adv, L1I, 0); got != 80 {
		t.Fatalf("shared-core L1I pressure = %v, want 80", got)
	}
}

func TestObservedPressureAdditive(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	adv := newVM("adv", 2, Vector{})
	v1 := newVM("v1", 2, vec(map[Resource]float64{MemBW: 30}))
	v2 := newVM("v2", 2, vec(map[Resource]float64{MemBW: 45}))
	for _, vm := range []*VM{adv, v1, v2} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ObservedPressure(adv, MemBW, 0); got != 75 {
		t.Fatalf("uncore pressure should add: %v, want 75", got)
	}
}

func TestObservedPressureClampsAt100(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	adv := newVM("adv", 2, Vector{})
	v1 := newVM("v1", 2, vec(map[Resource]float64{NetBW: 80}))
	v2 := newVM("v2", 2, vec(map[Resource]float64{NetBW: 80}))
	for _, vm := range []*VM{adv, v1, v2} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ObservedPressure(adv, NetBW, 0); got != 100 {
		t.Fatalf("pressure should clamp at 100, got %v", got)
	}
}

func TestVisibilityAttenuates(t *testing.T) {
	var vis Vector
	for i := range vis {
		vis[i] = 1
	}
	vis.Set(LLC, 0.2) // cache partitioning
	s := NewServer("s0", ServerConfig{Visibility: &vis})
	adv := newVM("adv", 2, Vector{})
	victim := newVM("v", 2, vec(map[Resource]float64{LLC: 70}))
	if err := s.Place(adv); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(victim); err != nil {
		t.Fatal(err)
	}
	if got := s.ObservedPressure(adv, LLC, 0); got != 14 {
		t.Fatalf("attenuated LLC pressure = %v, want 14", got)
	}
}

func TestSlowdownNeedsOverload(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	victim := newVM("v", 2, vec(map[Resource]float64{LLC: 40}))
	quiet := newVM("q", 2, vec(map[Resource]float64{LLC: 20}))
	if err := s.Place(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(quiet); err != nil {
		t.Fatal(err)
	}
	if sd := s.Slowdown(victim, 0); sd != 1 {
		t.Fatalf("no overload → slowdown 1, got %v", sd)
	}
}

func TestSlowdownGrowsWithContention(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	victim := newVM("v", 2, vec(map[Resource]float64{LLC: 70, MemBW: 60}))
	if err := s.Place(victim); err != nil {
		t.Fatal(err)
	}
	light := newVM("l", 2, vec(map[Resource]float64{LLC: 40}))
	if err := s.Place(light); err != nil {
		t.Fatal(err)
	}
	sdLight := s.Slowdown(victim, 0)
	s.Remove("l")
	heavy := newVM("h", 2, vec(map[Resource]float64{LLC: 90, MemBW: 90}))
	if err := s.Place(heavy); err != nil {
		t.Fatal(err)
	}
	sdHeavy := s.Slowdown(victim, 0)
	if !(sdHeavy > sdLight && sdLight > 1) {
		t.Fatalf("slowdown ordering wrong: light=%v heavy=%v", sdLight, sdHeavy)
	}
}

func TestSlowdownRespectsSensitivity(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	demand := vec(map[Resource]float64{LLC: 70})
	sensitive := &VM{ID: "sens", VCPUs: 2, App: fixedApp{
		demand: demand,
		sens:   vec(map[Resource]float64{LLC: 100}).Scale(0.01),
	}}
	insensitive := &VM{ID: "ins", VCPUs: 2, App: fixedApp{
		demand: demand,
		sens:   Vector{},
	}}
	attacker := newVM("atk", 2, vec(map[Resource]float64{LLC: 80}))
	for _, vm := range []*VM{sensitive, insensitive, attacker} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if s.Slowdown(insensitive, 0) != 1 {
		t.Fatal("zero sensitivity should mean no slowdown")
	}
	if s.Slowdown(sensitive, 0) <= 1 {
		t.Fatal("sensitive VM should slow down")
	}
}

func TestCPUUtilization(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	a := newVM("a", 4, vec(map[Resource]float64{CPU: 30}))
	b := newVM("b", 4, vec(map[Resource]float64{CPU: 25}))
	for _, vm := range []*VM{a, b} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if u := s.CPUUtilization(0); u != 55 {
		t.Fatalf("utilization = %v, want 55", u)
	}
}

func TestLookup(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	vm := newVM("x", 1, Vector{})
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	if s.Lookup("x") != vm || s.Lookup("y") != nil {
		t.Fatal("Lookup misbehaved")
	}
}

// reentrantApp breaks the observation-plane contract: its Demand asks the
// host's cached plane what its own VM observes.
type reentrantApp struct {
	host *Server
	vm   *VM
}

func (r *reentrantApp) Demand(t Tick) Vector {
	var v Vector
	v.Set(MemBW, r.host.ObservedPressure(r.vm, MemBW, t))
	return v
}
func (r *reentrantApp) DemandInto(t Tick, out *Vector, _ ResourceSet) { *out = r.Demand(t) }
func (r *reentrantApp) Sensitivity() Vector                           { return Vector{} }

func TestReentrantDemanderPanics(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	app := &reentrantApp{host: s}
	app.vm = &VM{ID: "reentrant", VCPUs: 2, App: app}
	for _, vm := range []*VM{app.vm, newVM("b", 2, vec(map[Resource]float64{MemBW: 40}))} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		const want = "sim: Demander re-entered the cached observation plane; use InterferenceLive"
		if got := recover(); got != want {
			t.Fatalf("recovered %v, want panic %q", got, want)
		}
	}()
	s.CPUUtilization(0)
}

// recordingApp is a fixedApp that logs the set each DemandInto call asks
// for.
type recordingApp struct {
	fixedApp
	asked *[]ResourceSet
}

func (r recordingApp) DemandInto(t Tick, out *Vector, need ResourceSet) {
	*r.asked = append(*r.asked, need)
	r.fixedApp.DemandInto(t, out, need)
}

// TestObservationFillsWorkingSet pins the fill rule: one pass per query
// that finds its entries missing, filling what it reads plus what the
// previous key's queries read, and nothing more.
func TestObservationFillsWorkingSet(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	var asked []ResourceSet
	obs := newVM("obs", 2, vec(map[Resource]float64{LLC: 30}))
	app := recordingApp{fixedApp{demand: vec(map[Resource]float64{MemBW: 20, DiskBW: 40, CPU: 10})}, &asked}
	for _, vm := range []*VM{obs, {ID: "rec", VCPUs: 2, App: app}} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	const disks = 1<<DiskBW | 1<<DiskCap
	steps := []struct {
		query func(Tick)
		at    Tick
		want  []ResourceSet // sets asked of the recording app by this query
	}{
		{func(t Tick) { s.ObservedPressure(nil, DiskBW, t) }, 1, []ResourceSet{1 << DiskBW}},
		{func(t Tick) { s.ObservedPressure(nil, DiskCap, t) }, 1, []ResourceSet{1 << DiskCap}},
		{func(t Tick) { s.ObservedPressure(nil, DiskBW, t) }, 1, nil},
		// The next tick takes the working set along on its first pass.
		{func(t Tick) { s.ObservedPressure(nil, DiskBW, t) }, 2, []ResourceSet{disks}},
		{func(t Tick) { s.ObservedPressure(nil, DiskCap, t) }, 2, nil},
		{func(t Tick) { s.CPUUtilization(t) }, 2, []ResourceSet{1 << CPU}},
		{func(t Tick) { s.ObservedPressure(nil, DiskCap, t) }, 3, []ResourceSet{disks | 1<<CPU}},
		// MemBW from a placed observer also reads LLC.
		{func(t Tick) { s.ObservedPressure(obs, MemBW, t) }, 3, []ResourceSet{1<<MemBW | 1<<LLC}},
		{func(t Tick) { s.ObservedPressure(obs, LLC, t) }, 3, nil},
		{func(t Tick) { s.HostDemand(t, 1<<DiskBW|1<<NetBW) }, 3, []ResourceSet{1 << NetBW}},
		{func(t Tick) { s.HostDemand(t, EveryResource) }, 3, []ResourceSet{EveryResource &^ (disks | 1<<CPU | 1<<MemBW | 1<<LLC | 1<<NetBW)}},
		{func(t Tick) { s.ObservedPressure(nil, DiskBW, t) }, 4, []ResourceSet{EveryResource}},
	}
	for i, st := range steps {
		asked = asked[:0]
		st.query(st.at)
		if !slices.Equal(asked, st.want) {
			t.Fatalf("step %d at tick %d: asked %010b, want %010b", i, st.at, asked, st.want)
		}
	}
}

// coreReader is a Demander that, while the plane fills it, reads the CPU
// pressure its host reports for its core — a re-entrant per-core query.
type coreReader struct {
	host *Server
	vm   *VM
	got  []float64
}

func (c *coreReader) Demand(Tick) Vector { return Vector{} }
func (c *coreReader) DemandInto(t Tick, out *Vector, _ ResourceSet) {
	c.got = append(c.got, c.host.ObservedCorePressure(c.vm, 0, CPU, t))
	*out = Vector{}
}
func (c *coreReader) Sensitivity() Vector { return Vector{} }

// TestReentrantCoreReadSeesLiveValue pins the have-bit rule: a column
// counts as filled only once its pass is over, so a per-core query made
// from inside a fill evaluates live instead of reading the entries the
// pass has not reached yet.
func TestReentrantCoreReadSeesLiveValue(t *testing.T) {
	s := NewServer("s0", ServerConfig{Cores: 1, ThreadsPerCore: 2})
	reader := &coreReader{host: s}
	reader.vm = &VM{ID: "reader", VCPUs: 1, App: reader}
	// The reader is placed first, so its fill runs before its sibling's
	// CPU entry is written.
	for _, vm := range []*VM{reader.vm, newVM("sibling", 1, vec(map[Resource]float64{CPU: 30}))} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if u := s.CPUUtilization(0); u != 30 {
		t.Fatalf("CPUUtilization = %v, want 30", u)
	}
	// A second pass at the same key finds CPU filled and reads it.
	s.ObservedPressure(nil, DiskBW, 0)
	if want := []float64{30, 30}; !slices.Equal(reader.got, want) {
		t.Fatalf("re-entrant ObservedCorePressure read %v, want the live %v", reader.got, want)
	}
}

// earlyCoreReader is a Demander that writes its CPU entry before, while
// being asked for it, it reads the CPU pressure its host reports for its
// core — a re-entrant per-core read that comes after the write.
type earlyCoreReader struct {
	host *Server
	vm   *VM
	cpu  float64
	got  []float64
}

func (e *earlyCoreReader) Demand(Tick) Vector { return vec(map[Resource]float64{CPU: e.cpu}) }
func (e *earlyCoreReader) DemandInto(t Tick, out *Vector, _ ResourceSet) {
	out[CPU] = e.cpu
	e.got = append(e.got, e.host.ObservedCorePressure(e.vm, 0, CPU, t))
}
func (e *earlyCoreReader) Sensitivity() Vector { return Vector{} }

// TestNestedCoreReadKeepsOuterEntry pins the live path's buffer rule: a
// per-core read re-entered from a sibling's DemandInto reads whole vectors
// and leaves the server's buffer alone, so the entry the sibling wrote
// before re-entering is the one the outer read sums.
func TestNestedCoreReadKeepsOuterEntry(t *testing.T) {
	s := NewServer("s0", ServerConfig{Cores: 1, ThreadsPerCore: 3})
	obs := newVM("obs", 1, vec(map[Resource]float64{CPU: 5}))
	early := &earlyCoreReader{host: s, cpu: 20}
	early.vm = &VM{ID: "early", VCPUs: 1, App: early}
	for _, vm := range []*VM{obs, early.vm, newVM("sibling", 1, vec(map[Resource]float64{CPU: 30}))} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ObservedCorePressure(obs, 0, CPU, 0); got != 20+30 {
		t.Fatalf("ObservedCorePressure = %v, want %v (the early reader's 20 and the sibling's 30)", got, 20+30)
	}
	if want := []float64{5 + 30}; !slices.Equal(early.got, want) {
		t.Fatalf("the re-entered read saw %v, want %v", early.got, want)
	}
	if s.coreReading {
		t.Fatal("the live path left coreReading set")
	}
}

// retunableApp is a Demander retuned out of band, like a probe kernel set.
// It counts the plane's reads of its demand (the key check) and its fills.
type retunableApp struct {
	demand Vector
	reads  int
	fills  int
}

func (a *retunableApp) Demand(Tick) Vector {
	a.reads++
	return a.demand
}
func (a *retunableApp) DemandInto(_ Tick, out *Vector, _ ResourceSet) {
	a.fills++
	*out = a.demand
}
func (a *retunableApp) Sensitivity() Vector { return Vector{} }
func (a *retunableApp) Retunable()          {}

// TestObservationKeysRetunablesOnDemand pins the demand key: a retunable
// demander placed at an already-filled tick is resolved by the epoch bump;
// a retune at that tick forces a refill; a retune undone before the next
// observation, and a retune to the value the demand already has, are both
// served from the snapshot; a new tick at the same epoch reads the demand
// again; and once the demander is removed no tick reads it.
func TestObservationKeysRetunablesOnDemand(t *testing.T) {
	s := NewServer("s0", ServerConfig{})
	plain := []*VM{
		newVM("a", 2, vec(map[Resource]float64{DiskBW: 40})),
		newVM("b", 2, vec(map[Resource]float64{DiskBW: 5})),
	}
	if err := s.Place(plain[0]); err != nil {
		t.Fatal(err)
	}
	read := func(at Tick, want float64) {
		t.Helper()
		if got := s.ObservedPressure(nil, DiskBW, at); got != want {
			t.Fatalf("tick %d: ObservedPressure(DiskBW) = %v, want %v", at, got, want)
		}
	}
	read(5, 40)
	if n := len(s.obs.retunable); n != 0 {
		t.Fatalf("%d retunable demanders listed on a host of plain demanders", n)
	}

	k := &retunableApp{demand: vec(map[Resource]float64{DiskBW: 10})}
	for _, vm := range []*VM{{ID: "k", VCPUs: 2, App: k}, plain[1]} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	read(5, 55) // same tick, new epoch: k is resolved and filled
	if n := len(s.obs.retunable); n != 1 || k.fills != 1 {
		t.Fatalf("after placing the retunable demander: %d listed, %d fills, want 1 and 1", n, k.fills)
	}
	fills := func(want int, what string) {
		t.Helper()
		if k.fills != want {
			t.Fatalf("%s: %d fills at tick 5, want %d", what, k.fills, want)
		}
	}
	k.demand.Set(DiskBW, 30)
	read(5, 75) // same tick and epoch, new demand: refilled
	read(5, 75) // warm
	fills(2, "a retune at a filled tick")
	k.demand.Set(DiskBW, 90)
	k.demand.Set(DiskBW, 30)
	read(5, 75)
	fills(2, "a retune undone before the next observation")
	k.demand.Set(DiskBW, 30)
	read(5, 75)
	fills(2, "a retune to the value the demand already has")
	before := k.reads
	read(6, 75) // new tick at the same epoch reads the demand again
	if k.reads == before {
		t.Fatal("a new tick at the same epoch did not read the retunable demand")
	}

	// Removing k shifts b into its slot: a stale resolution would still
	// ask k for its demand there.
	s.Remove("k")
	reads, fillsBefore := k.reads, k.fills
	for at := Tick(6); at < 200; at++ {
		read(at, 45)
		s.CPUUtilization(at)
	}
	if n := len(s.obs.retunable); n != 0 || k.reads != reads || k.fills != fillsBefore {
		t.Fatalf("after removing the retunable demander: %d listed, %d more reads, %d more fills, want 0, 0 and 0",
			n, k.reads-reads, k.fills-fillsBefore)
	}
}
