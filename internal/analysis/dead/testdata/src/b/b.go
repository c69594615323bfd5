package b

import "example.com/m/a"

func init() {
	_ = a.T{Set: 1}
	_ = a.New()
}
