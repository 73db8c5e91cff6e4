module sforder/bench

go 1.22

require sforder v0.0.0

replace sforder => ../
