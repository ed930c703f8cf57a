module ocsml/bench

go 1.24

require ocsml v0.0.0

replace ocsml => ../../
