module vnfopt/bench

go 1.22

require vnfopt v0.0.0

replace vnfopt => ../
