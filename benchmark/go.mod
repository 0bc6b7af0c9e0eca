module spacebooking/benchmark

go 1.22

require spacebooking v0.0.0

replace spacebooking => ../
