package traffic

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/simtime"
)

func calibrationProfiles() []Profile {
	custom := Profile{
		Name: "custom",
		Mix: []MixEntry{
			{Kind: AppFTP, Locality: EastWest, Weight: 3},
			{Kind: AppSyslog, Locality: Outbound, Weight: 1.5},
			{Kind: AppHTTP, Locality: NorthSouth, Weight: 0.25},
		},
	}
	var out []Profile
	for _, p := range []Profile{EcommerceEdge(), RealTimeCluster(), EnterpriseCampus(), custom} {
		out = append(out, p, p.WithRandomPayloads())
	}
	return out
}

func newTestGenerator(t testing.TB, p Profile) *Generator {
	t.Helper()
	g, err := NewGenerator(simtime.New(1), p, testEndpoints(), nil, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The memoized rate is exactly the rate the uncached reference yields:
// cold and warm calls both equal targetPps / AvgPacketsPerSession at the
// calibration seed and sample count, bit for bit.
func TestSessionRateMemoMatchesReference(t *testing.T) {
	const target = 600.0
	for _, p := range calibrationProfiles() {
		want := target / p.AvgPacketsPerSession(rand.New(rand.NewSource(1)), 300)
		for call := 0; call < 2; call++ {
			if got := newTestGenerator(t, p).SessionRateForPps(target); got != want {
				t.Fatalf("%s call %d: rate %v, reference %v", p.Name, call, got, want)
			}
		}
	}
}

// The memo keys on content, not Name: same name, different weights,
// different rates — and a renamed copy of a profile shares its entry.
func TestSessionRateMemoKeysOnContent(t *testing.T) {
	a := Profile{Name: "same-name", Mix: []MixEntry{
		{Kind: AppHTTP, Locality: NorthSouth, Weight: 9},
		{Kind: AppBulk, Locality: NorthSouth, Weight: 1},
	}}
	b := Profile{Name: "same-name", Mix: []MixEntry{
		{Kind: AppHTTP, Locality: NorthSouth, Weight: 1},
		{Kind: AppBulk, Locality: NorthSouth, Weight: 9},
	}}
	ra := newTestGenerator(t, a).SessionRateForPps(1000)
	rb := newTestGenerator(t, b).SessionRateForPps(1000)
	if ra == rb {
		t.Fatalf("profiles with one name but different weights share rate %v", ra)
	}
	if want := 1000 / b.AvgPacketsPerSession(rand.New(rand.NewSource(1)), 300); rb != want {
		t.Fatalf("second profile served %v, reference %v", rb, want)
	}
	renamed := a
	renamed.Name = "other-name"
	if got := newTestGenerator(t, renamed).SessionRateForPps(1000); got != ra {
		t.Fatalf("renamed profile rate %v, want %v", got, ra)
	}
}

// A colliding fingerprint must never serve another profile's estimate.
func TestCalibrationMemoRejectsCollision(t *testing.T) {
	p := Profile{Name: "collide", Mix: []MixEntry{{Kind: AppDNS, Locality: Outbound, Weight: 1}}}
	other := EcommerceEdge()
	calibrationMemo.Store(profileFingerprint(p), &calibration{mix: other.Mix, avg: -1})
	defer calibrationMemo.Delete(profileFingerprint(p))
	want := p.AvgPacketsPerSession(rand.New(rand.NewSource(1)), 300)
	if got := calibratedAvgPackets(p); got != want {
		t.Fatalf("collision served %v, want %v", got, want)
	}
}

// Many goroutines calibrating one profile agree (run under -race in CI).
func TestSessionRateMemoConcurrent(t *testing.T) {
	p := Profile{Name: "parallel", Mix: []MixEntry{
		{Kind: AppPOP3, Locality: EastWest, Weight: 2},
		{Kind: AppNTP, Locality: Outbound, Weight: 5},
	}}
	want := 800 / p.AvgPacketsPerSession(rand.New(rand.NewSource(1)), 300)
	const n = 16
	rates := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := NewGenerator(simtime.New(int64(i)), p, testEndpoints(), nil, func(*packet.Packet) {})
			if err != nil {
				t.Error(err)
				return
			}
			rates[i] = g.SessionRateForPps(800)
		}(i)
	}
	wg.Wait()
	for i, r := range rates {
		if r != want {
			t.Fatalf("goroutine %d: rate %v, want %v", i, r, want)
		}
	}
}

// A warm calibration allocates nothing.
func TestSessionRateMemoWarmZeroAllocs(t *testing.T) {
	g := newTestGenerator(t, EnterpriseCampus())
	g.SessionRateForPps(600)
	if allocs := testing.AllocsPerRun(100, func() { g.SessionRateForPps(600) }); allocs != 0 {
		t.Fatalf("warm SessionRateForPps: %v allocs/op, want 0", allocs)
	}
}
