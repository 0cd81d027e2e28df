package main

import (
	"time"

	"repro/internal/obs"
	"repro/internal/zof"
)

// flightPoll is how often the controller flight recorder is read.
const flightPoll = 5 * time.Millisecond

// codecLayers sets zof.marshal_ns and zof.unmarshal_ns: the cost of
// one setup's PacketIn plus its FlowMod.
func codecLayers(out map[string]float64, pis, fms []zof.Message) {
	var buf []byte
	var wires [][]byte
	for i := range pis {
		for _, m := range []zof.Message{pis[i], fms[i]} {
			w, err := zof.Marshal(m, 1)
			if err == nil {
				wires = append(wires, w)
			}
		}
	}
	out["zof.marshal_ns"] = 2 * nsPer(layerTime, 2*len(pis), func() {
		for i := range pis {
			buf, _ = zof.MarshalAppend(buf[:0], pis[i], 1)
			buf, _ = zof.MarshalAppend(buf[:0], fms[i], 1)
		}
	})
	out["zof.unmarshal_ns"] = 2 * nsPer(layerTime, len(wires), func() {
		for _, w := range wires {
			_, _, _ = zof.Unmarshal(w)
		}
	})
}

// flight polls the controller flight recorder in full mode and keeps
// the packet-in events' queue wait, dispatch time and routing span.
type flight struct {
	rec                   *obs.FlightRecorder
	stop, done            chan struct{}
	queue, total, routing *samples
}

func startFlight(rec *obs.FlightRecorder) *flight {
	f := &flight{rec: rec, stop: make(chan struct{}), done: make(chan struct{}),
		queue: newSamples(1 << 20), total: newSamples(1 << 20), routing: newSamples(1 << 20)}
	rec.SetMode(obs.TraceFull)
	go f.poll()
	return f
}

func (f *flight) poll() {
	defer close(f.done)
	last := f.rec.Recorded()
	t := time.NewTicker(flightPoll)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		for _, ev := range f.rec.Events(0) {
			if ev.Seq < last || ev.Kind != "packet_in" {
				continue
			}
			f.queue.push(time.Duration(ev.QueueNS))
			f.total.push(time.Duration(ev.TotalNS))
			for _, a := range ev.Apps {
				if a.App == "spf-routing" {
					f.routing.push(time.Duration(a.DurNS))
				}
			}
		}
		last = f.rec.Recorded()
	}
}

func (f *flight) finish(out map[string]float64) {
	close(f.stop)
	<-f.done
	f.rec.SetMode(obs.TraceOff)
	out["controller.queue_wait_p50_us"] = f.queue.quantile(0.50)
	out["controller.queue_wait_p99_us"] = f.queue.quantile(0.99)
	out["controller.dispatch_p50_us"] = f.total.quantile(0.50)
	out["apps.routing_p50_us"] = f.routing.quantile(0.50)
}
