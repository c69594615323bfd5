package b

import (
	"testing"

	"example.com/m/a"
)

func TestOther(t *testing.T) {
	a.OtherTestOnly()
}
