module miso/bench

go 1.22

require miso v0.0.0

replace miso => ../
