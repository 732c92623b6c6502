package main

import (
	"testing"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
	"quetzal/internal/device"
	"quetzal/internal/experiments"
	"quetzal/internal/trace"
)

type fakeCtl struct{}

func (fakeCtl) Name() string { return "fake" }
func (fakeCtl) NextJob(core.Env, *buffer.Buffer) (core.Decision, bool) {
	return core.Decision{JobID: 7}, true
}
func (fakeCtl) ObserveCapture(bool)         {}
func (fakeCtl) OnJobComplete(core.Feedback) {}
func (fakeCtl) RatioOps() (int, bool)       { return 3, true }

type fakeRS struct{ fakeCtl }

func (fakeRS) ReplaySensitive() bool { return true }

type fakeTA struct {
	fakeCtl
	temp *float64
}

func (f fakeTA) SetTemperature(c float64) { *f.temp = c }

type fakeRSTA struct {
	fakeTA
}

func (fakeRSTA) ReplaySensitive() bool { return false }

func markers(c core.Controller) (rs, ta bool) {
	_, rs = c.(core.ReplaySensitive)
	_, ta = c.(core.TemperatureAware)
	return rs, ta
}

// The wrapper implements the optional markers exactly when the wrapped
// controller does, and forwards their values, so the engine's lockstep
// replay gate and temperature propagation see the same controller.
func TestWrapControllerForwardsMarkers(t *testing.T) {
	temp := 0.0
	for _, ctl := range []core.Controller{
		fakeCtl{}, fakeRS{}, fakeTA{temp: &temp}, fakeRSTA{fakeTA{temp: &temp}},
	} {
		var st ctlStats
		w := wrapController(ctl, &st)
		wrs, wta := markers(w)
		rs, ta := markers(ctl)
		if wrs != rs || wta != ta {
			t.Errorf("%T: wrapper markers (rs %v, ta %v), controller (rs %v, ta %v)", ctl, wrs, wta, rs, ta)
		}
		if rs && w.(core.ReplaySensitive).ReplaySensitive() != ctl.(core.ReplaySensitive).ReplaySensitive() {
			t.Errorf("%T: ReplaySensitive value not forwarded", ctl)
		}
		if ta {
			w.(core.TemperatureAware).SetTemperature(42)
			if temp != 42 {
				t.Errorf("%T: SetTemperature not forwarded", ctl)
			}
			temp = 0
		}
		if d, ok := w.NextJob(core.Env{}, nil); !ok || d.JobID != 7 || st.calls != 1 {
			t.Errorf("%T: NextJob = %+v, %v after %d calls", ctl, d, ok, st.calls)
		}
		if w.Name() != "fake" {
			t.Errorf("%T: Name = %q", ctl, w.Name())
		}
		if ops, mod := w.RatioOps(); ops != 3 || !mod {
			t.Errorf("%T: RatioOps = %d, %v", ctl, ops, mod)
		}
	}
}

// Every registered policy, wrapped, keeps its marker set.
func TestWrapControllerRegistry(t *testing.T) {
	prof := device.Apollo4()
	events := trace.GenerateEvents(trace.DefaultEventConfig(5, 20, 1))
	power := trace.Constant{P: 0.01}
	for _, name := range experiments.PolicyNames() {
		if name == experiments.SysIdeal {
			continue
		}
		app := prof.PersonDetectionApp()
		ctl, _, err := experiments.Setup{Profile: prof}.Controller(name, app, power, events)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var st ctlStats
		w := wrapController(ctl, &st)
		wrs, wta := markers(w)
		rs, ta := markers(ctl)
		if wrs != rs || wta != ta {
			t.Errorf("%s: wrapper markers (rs %v, ta %v), controller (rs %v, ta %v)", name, wrs, wta, rs, ta)
		}
		if rs && w.(core.ReplaySensitive).ReplaySensitive() != ctl.(core.ReplaySensitive).ReplaySensitive() {
			t.Errorf("%s: ReplaySensitive value not forwarded", name)
		}
	}
}

// Self time is a span's duration minus its direct children's.
func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	l := r.lane()
	l.spans = []span{
		{Name: "device", Parent: -1, Start: 0, End: 100},
		{Name: "engine.run", Parent: 0, Start: 10, End: 90},
		{Name: "fleet.summarize", Parent: 1, Start: 80, End: 85},
	}
	got := r.selfTimes()
	for name, want := range map[string][2]int64{
		"device":          {100, 20},
		"engine.run":      {80, 75},
		"fleet.summarize": {5, 5},
	} {
		if lt := got[name]; int64(lt.total) != want[0] || int64(lt.self) != want[1] || lt.n != 1 {
			t.Errorf("%s: %+v, want total %d self %d", name, lt, want[0], want[1])
		}
	}
}
