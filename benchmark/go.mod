module hpsockets/benchmark

go 1.22

require hpsockets v0.0.0

replace hpsockets => ../
