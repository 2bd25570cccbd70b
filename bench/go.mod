module godm/bench

go 1.22

require godm v0.0.0

replace godm => ../
