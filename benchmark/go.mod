module servo/benchmark

go 1.24

require servo v0.0.0

replace servo => ../
