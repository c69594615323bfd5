// Package m is the module's root package: its API is exempt.
package m

import "example.com/m/a"

// Aliased re-exports a type; its methods are the root's API too.
type Aliased = a.Aliased

func Exported() {}
