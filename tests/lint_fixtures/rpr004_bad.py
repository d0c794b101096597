# repro-lint-module: repro.sim.fixture_rpr004_bad
"""RPR004-positive fixture: unpicklable objects smuggled into grid specs."""


def build_spec(GridSpec, PolicySpec, register_grid_factory):
    @register_grid_factory("local")
    def local_factory(scale):
        return []

    return GridSpec(
        policies=[PolicySpec(name="p", make=lambda: None)],
        workloads=[],
    )

