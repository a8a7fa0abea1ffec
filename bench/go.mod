module webcachesim/bench

go 1.22

require webcachesim v0.0.0

replace webcachesim => ../
