package simgen

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"quetzal/internal/engine"
)

// TestCalibrate measures, over the curated table plus the random sweep, the
// worst absolute and relative per-field deviation between the two engines.
// It never fails; it prints a table used to set (and audit) Tolerance().
// Run with SIMGEN_CALIBRATE=1 go test -run TestCalibrate -v ./internal/simgen/
func TestCalibrate(t *testing.T) {
	if os.Getenv("SIMGEN_CALIBRATE") == "" {
		t.Skip("set SIMGEN_CALIBRATE=1 to run the tolerance calibration sweep")
	}
	type worst struct {
		abs, rel float64
		absAt    string
	}
	acc := map[string]*worst{}
	record := func(p Params) {
		fixed, err := p.Run(engine.FixedIncrement)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		event, err := p.Run(engine.EventDriven)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		va, vb := reflect.ValueOf(fixed), reflect.ValueOf(event)
		rt := va.Type()
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			var deltas []struct {
				name string
				a, b float64
			}
			switch f.Type.Kind() {
			case reflect.Int:
				deltas = append(deltas, struct {
					name string
					a, b float64
				}{
					f.Name, float64(va.Field(i).Int()), float64(vb.Field(i).Int())})
			case reflect.Float64:
				deltas = append(deltas, struct {
					name string
					a, b float64
				}{
					f.Name, va.Field(i).Float(), vb.Field(i).Float()})
			case reflect.Array:
				for j := 0; j < f.Type.Len(); j++ {
					deltas = append(deltas, struct {
						name string
						a, b float64
					}{
						f.Name, float64(va.Field(i).Index(j).Int()), float64(vb.Field(i).Index(j).Int())})
				}
			default:
				continue
			}
			for _, d := range deltas {
				w := acc[d.name]
				if w == nil {
					w = &worst{}
					acc[d.name] = w
				}
				abs := math.Abs(d.a - d.b)
				if abs > w.abs {
					w.abs = abs
					w.absAt = fmt.Sprintf("%.4g vs %.4g seed=%d", d.a, d.b, p.Seed)
				}
				if m := math.Max(math.Abs(d.a), math.Abs(d.b)); m > 0 {
					if r := abs / m; r > w.rel {
						w.rel = r
					}
				}
			}
		}
	}
	for _, p := range curated {
		record(p.Normalize())
	}
	for i := int64(0); i < 200; i++ {
		record(Random(1000 + i))
	}
	names := make([]string, 0, len(acc))
	for n := range acc {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := acc[n]
		t.Logf("%-24s absMax=%-12.6g relMax=%-8.4f at %s", n, w.abs, w.rel, w.absAt)
	}
}
