package core

import (
	"reflect"
	"testing"

	"kmgraph/internal/wire"
)

// TestConfigWireFormCoversEveryField sets every field of Config, recursing
// into nested structs, to a distinct non-zero value and checks that the
// wire form carries it: a field added without one fails here.
func TestConfigWireFormCoversEveryField(t *testing.T) {
	var c Config
	next := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				next++
				f.SetInt(next * 7)
			default:
				t.Fatalf("Config field %s has kind %s: give it a wire form and a case here", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&c).Elem())
	c.Seed = -c.Seed // a negative seed must survive too

	b := AppendConfig([]byte{0xee}, c)
	r := wire.NewReader(b[1:])
	got := ReadConfig(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, c)
	}
	for _, f := range []*bool{&c.CollapseLevelWise, &c.CoinMerge, &c.EdgeCheckSelection, &c.FaithfulRandomness, &c.CountComponents} {
		*f = false
		if got := ReadConfig(wire.NewReader(AppendConfig(nil, c))); got != c {
			t.Fatalf("switch cleared: got %+v, want %+v", got, c)
		}
	}
}
