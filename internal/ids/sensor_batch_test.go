package ids

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// scalarOnly hides an engine's Prescanning methods behind a plain Engine
// interface, forcing the sensor onto the historical per-packet scan path.
type scalarOnly struct{ detect.Engine }

// batchProbePayloads mixes benign payloads with content-rule hits.
var batchProbePayloads = []string{
	"GET /catalog/items HTTP/1.0 status nominal",
	"GET /cgi-bin/phf?Qalias=x HTTP/1.0",
	"track update bearing range doppler contact",
	"cat /etc/passwd then > /.rhosts",
	"status report nominal",
	"GET /default.ida?NNNN HTTP/1.0",
	"plain benign chatter with no rule content",
	"Login incorrect Login incorrect Login incorrect",
}

// splitProbePayloads is batchProbePayloads with the phf exploit split
// over two segments, which only a reassembling engine catches.
var splitProbePayloads = append([]string{batchProbePayloads[0], "GET /cgi-b", "in/phf?Qalias=x HTTP/1.0"},
	batchProbePayloads[2:]...)

// batchProbePkts is a burst of payloads on one flow (so the flow-hash
// balancer queues it all on one sensor).
func batchProbePkts(payloads []string) []*packet.Packet {
	pkts := make([]*packet.Packet, 0, len(payloads))
	for i, pl := range payloads {
		pkts = append(pkts, &packet.Packet{
			Seq: uint64(i + 1),
			Src: packet.IPv4(203, 0, 1, 9), Dst: packet.IPv4(10, 1, 1, 1),
			SrcPort: 31000, DstPort: 80, Proto: packet.ProtoTCP,
			Flags: packet.ACK | packet.PSH, TTL: 64,
			Payload: []byte(pl),
		})
	}
	return pkts
}

// TestSensorBatchedScanMatchesScalarSensor runs the same burst through
// two identically-configured single-sensor pipelines — one whose engine
// exposes batched prescanning, one forced scalar — and requires
// byte-identical observable output (stats, incidents, notifications)
// while proving the batched sensor actually formed multi-packet scan
// cycles under queue depth. It does so for the stock engine, for
// NetRecorder's reassembling engine over a burst whose phf exploit is
// split over two segments, which the batched sensor must still catch,
// and for the stock engine crashed and recovered mid-batch.
func TestSensorBatchedScanMatchesScalarSensor(t *testing.T) {
	for _, c := range []struct {
		name     string
		engine   func() detect.Engine
		payloads []string
		crash    bool
	}{
		{"stock", func() detect.Engine { return detect.NewStandardSignatureEngine() }, batchProbePayloads, false},
		{"reassembling", func() detect.Engine { return detect.NewReassemblingSignatureEngine() }, splitProbePayloads, false},
		{"crash-mid-batch", func() detect.Engine { return detect.NewStandardSignatureEngine() }, batchProbePayloads, true},
	} {
		t.Run(c.name, func(t *testing.T) { checkBatchedMatchesScalar(t, c.engine, c.payloads, c.crash) })
	}
}

// crashMidBatch lets sn complete two packets, crashes it, lets two more
// queued packets pop while it is dead and recovers it. The first
// completion prescanned the whole burst, so the dead pops and the
// packets after them are all covered by that one batch.
func crashMidBatch(t *testing.T, sim *simtime.Sim, sn *Sensor) {
	step := func(done func() bool) {
		for i := 0; !done(); i++ {
			if i == 1000 {
				t.Fatal("sensor never reached the crash window")
			}
			sim.RunUntil(sim.Now() + time.Microsecond)
		}
	}
	step(func() bool { return sn.Processed == 2 })
	sn.InjectCrash()
	depth := sn.QueueDepth()
	step(func() bool { return sn.QueueDepth() == depth-2 })
	sn.InjectRecover()
}

func checkBatchedMatchesScalar(t *testing.T, engine func() detect.Engine, payloads []string, crash bool) {
	run := func(factory func() detect.Engine) (*IDS, *simtime.Sim) {
		sim := simtime.New(1)
		s, err := New(sim, Config{Name: "batch-probe", Engine: factory, SensorQueue: 64})
		if err != nil {
			t.Fatal(err)
		}
		// Ingest the whole burst at one instant: the sensor's busy time
		// queues the tail behind the head, so the first completion event
		// sees a deep queue — the batch-forming condition.
		for _, p := range batchProbePkts(payloads) {
			s.Ingest(p)
		}
		if crash {
			crashMidBatch(t, sim, s.Sensors()[0])
		}
		sim.Run()
		return s, sim
	}

	batched, _ := run(engine)
	scalar, _ := run(func() detect.Engine { return scalarOnly{engine()} })

	bs, ss := batched.Stats(), scalar.Stats()
	if !reflect.DeepEqual(bs, ss) {
		t.Fatalf("stats diverged:\nbatched %+v\nscalar  %+v", bs, ss)
	}
	if !reflect.DeepEqual(batched.Monitor().Incidents, scalar.Monitor().Incidents) {
		t.Fatalf("incidents diverged:\nbatched %+v\nscalar  %+v",
			batched.Monitor().Incidents, scalar.Monitor().Incidents)
	}
	if bs.AlertsRaised == 0 {
		t.Fatal("burst raised no alerts; equivalence check is vacuous")
	}
	phf := false
	for _, inc := range batched.Monitor().Incidents {
		for _, a := range inc.sampleAlerts {
			phf = phf || a.Reason == `signature "phf-cgi" matched`
		}
	}
	if !phf {
		t.Fatal("batched sensor missed the phf exploit")
	}

	var scans, pkts uint64
	for _, sn := range batched.Sensors() {
		scans += sn.BatchScans
		pkts += sn.BatchPackets
	}
	if scans == 0 {
		t.Fatal("batched sensor never formed a batch under queue depth")
	}
	if want := uint64(len(payloads)); crash && (scans != 1 || pkts != want || bs.Processed != want-2) {
		t.Fatalf("crash run made %d scans over %d packets and processed %d, want 1 scan over %d and %d processed",
			scans, pkts, bs.Processed, want, want-2)
	}
	if pkts <= scans {
		t.Fatalf("batches never covered more than one packet (scans=%d pkts=%d)", scans, pkts)
	}
	for _, sn := range scalar.Sensors() {
		if sn.BatchScans != 0 {
			t.Fatal("scalar-only sensor reported batch scans")
		}
	}
}
