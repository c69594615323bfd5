package a

import "fmt"

// T is referenced from package b.
type T struct {
	Set       int
	Knob      int // want "field T.Knob is never written"
	Defaulted int // want "field T.Defaulted is never written"
	Tagged    int `json:"tagged"`
	TestSet   int
}

// New is called from package b.
func New() T { return T{}.withDefaults() }

// withDefaults writes only its own copy: that is no caller setting Defaulted.
func (t T) withDefaults() T {
	if t.Defaulted == 0 {
		t.Defaulted = 3
	}
	return t
}

// String implements fmt.Stringer.
func (t T) String() string { return fmt.Sprint(t.Set, t.Knob, t.Defaulted, t.Tagged, t.TestSet) }

func (T) OwnTestOnly() {} // want "exported OwnTestOnly has no reference outside its package's tests"

func Unused() {} // want "exported Unused has no reference outside its package's tests"

// OtherTestOnly is called by package b's test.
func OtherTestOnly() {}

// BenchOnly is called by the bench module.
func BenchOnly() {}

//kmvet:ignore kept for a reason the analyzer cannot see
func Waived() {}

// Aliased is re-exported by the root package.
type Aliased struct{}

func (Aliased) OnlyViaRoot() {}
