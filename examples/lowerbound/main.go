// Lower-bound demonstration (Theorem 5): solving spanning-connected-
// subgraph verification answers two-party set disjointness, so any
// algorithm must move Ω(b) bits between the Alice and Bob machine halves.
// This example runs the real connectivity algorithm on Figure-1 instances
// and meters exactly that cut traffic.
package main

import (
	"fmt"
	"log"

	"kmgraph"
	"kmgraph/internal/lowerbound"
)

func main() {
	fmt.Println("Figure-1 construction: s, t, and b pairs (u_i, v_i);")
	fmt.Println("H misses (s,u_i) iff X[i]=1 and (v_i,t) iff Y[i]=1,")
	fmt.Println("so H spans and connects iff X and Y are disjoint.")
	fmt.Println()

	const k = 4
	for _, b := range []int{32, 64, 128, 256} {
		inst := lowerbound.RandomInstance(b, int64(b), lowerbound.ForceNothing)
		res, err := lowerbound.RunSCS(inst, kmgraph.Config{K: k, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("b=%-4d SCS=%-5v DISJ=%-5v agree=%v  cut=%8d bits (%5.0f bits/input-bit)  rounds=%d\n",
			b, res.SCSHolds, res.Disjoint, res.SCSHolds == res.Disjoint,
			res.CutBits, float64(res.CutBits)/float64(b), res.Rounds)
	}

	fmt.Println()
	fmt.Println("the Alice/Bob cut has capacity 2(k/2)²·B bits per round, so Ω(b)")
	fmt.Println("cut bits force Ω̃(b/k²) rounds — the Theorem 5 lower bound. With")
	fmt.Println("b = (n-2)/2 this matches the algorithm's Õ(n/k²) upper bound.")
}
