module hyperfile/perf

go 1.22

require hyperfile v0.0.0

replace hyperfile => ../
