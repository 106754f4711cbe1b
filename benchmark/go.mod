module dnnd/benchmark

go 1.22

require dnnd v0.0.0

replace dnnd => ../
