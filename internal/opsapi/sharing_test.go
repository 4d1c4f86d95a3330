package opsapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"nezha/internal/obs"
	"nezha/internal/sim"
)

// TestSharedLabelsReadOnly has readers render retained snapshots over
// HTTP and range over their Point.Labels directly while the sim
// goroutine keeps publishing. Every point of a label set in one read
// shares one label map, the registry shares its own between the
// snapshots it takes, and collector label sets vanish and come back
// between snapshots; under -race this proves the sharing is read-only.
func TestSharedLabelsReadOnly(t *testing.T) {
	loop := sim.NewLoop(1)
	ob := obs.New(obs.Options{})
	ticks := ob.Reg.GetCounter("ticks_total", obs.L("node", "a"))
	obs.Register(ob.Reg, ticks, obs.L("node", "b"), &obs.Table[obs.Counter]{
		Series: []obs.Series[obs.Counter]{{Name: "ticks_func_total", Kind: obs.KindCounter,
			Value: func(c *obs.Counter) float64 { return float64(c.Load()) }}},
		Collect: func(c *obs.Counter, emit obs.Emit) {
			n := c.Load()
			for v := n % 7; v < 12; v += 2 {
				emit("dyn_total", obs.L("vnic", strconv.FormatUint(v, 10)), obs.KindCounter, float64(n))
			}
		},
	})
	loop.Every(10*sim.Millisecond, ticks.Inc)
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 32})
	pub := &obs.Publisher{Obs: ob, Hist: h, Every: 50 * sim.Millisecond}
	pub.Attach(loop)

	srv := New()
	srv.SetHistory(h)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	loop.Run(sim.Second)
	done, first := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for _, ep := range []string{"/api/v1/history", "/metrics"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				n := 0
				for _, s := range h.Query(0, 0, nil) {
					for i := range s.Points {
						for k, v := range s.Points[i].Labels {
							n += len(k) + len(v)
						}
					}
				}
				if n == 0 {
					t.Error("retained snapshots carry no labels")
					return
				}
				once.Do(func() { close(first) })
			}
		}(ts.URL + ep)
	}
	select {
	case <-first:
		loop.Run(60 * sim.Second)
	case <-time.After(10 * time.Second):
		t.Error("no reader finished a pass")
	}
	close(done)
	wg.Wait()
	if got := h.Published(); !t.Failed() && got != 1200 {
		t.Fatalf("published %d snapshots over 60 s, want 1200", got)
	}
}
