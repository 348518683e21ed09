module rofl/benchmarks

go 1.24

require rofl v0.0.0

replace rofl => ../
