module sharebackup/benchmarks

go 1.22

require sharebackup v0.0.0

replace sharebackup => ../
