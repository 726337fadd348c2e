package cluster

import (
	"reflect"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/workload"
)

// TestTotalStatsSumsEveryField: every field of TotalStats, site.Stats' and
// engine.Stats' alike, is the sum of that field of SiteStats over all sites.
// A burst of queries at an origin admitting one at a time, with no
// admission queue, meets rejections, so the overload fields count too.
func TestTotalStatsSumsEveryField(t *testing.T) {
	c := NewSim(3, Options{Cost: sim.Paper(), Tuning: site.Tuning{MaxInflight: 1}})
	d, err := workload.Build(c, workload.Spec{N: 90, Machines: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	body := workload.ClosureQuery("Tree", "Rand10", 4)
	for range 4 {
		c.ScheduleQuery(0, 1, body, []object.ID{d.Root})
	}
	c.loop.Run()
	if c.err != nil {
		t.Fatal(c.err)
	}
	want := reflect.New(reflect.TypeOf(site.Stats{})).Elem()
	for _, id := range c.Sites() {
		addFields(want, reflect.ValueOf(c.SiteStats(id)))
	}
	total := c.TotalStats()
	compareFields(t, "Stats", reflect.ValueOf(total), want)
	if total.Rejected == 0 || total.Admitted == 0 || total.Engine.Processed == 0 {
		t.Errorf("the burst must be admitted in part, rejected in part, and run: %+v", total)
	}
}

// addFields adds every int field of src, recursing into structs, into dst.
func addFields(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		if f := dst.Field(i); f.Kind() == reflect.Struct {
			addFields(f, src.Field(i))
		} else {
			f.SetInt(f.Int() + src.Field(i).Int())
		}
	}
}

// compareFields reports every int field, recursing into structs, in which
// got and want differ.
func compareFields(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		name := path + "." + got.Type().Field(i).Name
		if g := got.Field(i); g.Kind() == reflect.Struct {
			compareFields(t, name, g, want.Field(i))
		} else if g.Int() != want.Field(i).Int() {
			t.Errorf("%s: TotalStats %d, sum over sites %d", name, g.Int(), want.Field(i).Int())
		}
	}
}
