package a

import "testing"

func TestOwn(t *testing.T) {
	T{TestSet: 1}.OwnTestOnly()
}
