package site

import (
	"reflect"
	"testing"

	"hyperfile/internal/metrics"
	"hyperfile/internal/store"
)

// TestEveryStatHasItsCounter: every field of Stats, Engine's included, names
// a counter of its own in its metric tag; New registers that counter and
// binds the site's handle for the field to it; and Stats reads each field
// from its own counter.
func TestEveryStatHasItsCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{ID: 1, Store: store.New(1), Metrics: reg})
	registered := map[string]bool{}
	for _, name := range reg.CounterNames() {
		registered[name] = true
	}
	if bad := reg.Unregistered(&s.met); len(bad) > 0 {
		t.Errorf("site instruments not from the registry: %v", bad)
	}
	handles := reflect.ValueOf(&s.met.statCounters).Elem()
	leaves := 0
	var countLeaves func(v reflect.Value)
	countLeaves = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Struct {
				countLeaves(f)
			} else {
				leaves++
			}
		}
	}
	countLeaves(handles)
	if leaves != len(statFields) {
		t.Errorf("the site holds %d stat counter handles for %d Stats fields", leaves, len(statFields))
	}
	owner := map[string][]string{}
	for i, f := range statFields {
		switch {
		case f.name == "":
			t.Errorf("Stats field %v has no metric tag", f.path)
		case owner[f.name] != nil:
			t.Errorf("Stats fields %v and %v share counter %q", owner[f.name], f.path, f.name)
		case !registered[f.name]:
			t.Errorf("Stats field %v: counter %q is not registered", f.path, f.name)
		}
		owner[f.name] = f.path
		if h, _ := f.in(handles).Interface().(*metrics.Counter); h != reg.Counter(f.name) {
			t.Errorf("Stats field %v: the site's handle is not counter %q", f.path, f.name)
		}
		reg.Counter(f.name).Add(uint64(i + 1))
	}
	st := reflect.ValueOf(s.Stats())
	for i, f := range statFields {
		if got := f.in(st).Int(); got != int64(i+1) {
			t.Errorf("Stats field %v reads %d, its counter %q holds %d", f.path, got, f.name, i+1)
		}
	}
}
