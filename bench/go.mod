module kmgraph/bench

go 1.22

require kmgraph v0.0.0

replace kmgraph => ../
