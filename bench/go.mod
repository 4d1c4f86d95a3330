module nezha/bench

go 1.22

require nezha v0.0.0

replace nezha => ../
