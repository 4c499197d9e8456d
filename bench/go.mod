module flecc/bench

go 1.22

require flecc v0.0.0

replace flecc => ../
