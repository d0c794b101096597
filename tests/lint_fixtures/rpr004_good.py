# repro-lint-module: repro.sim.fixture_rpr004_good
"""RPR004-negative fixture: module-level factory, picklable specs."""

GRID_FACTORIES = {}


def register_grid_factory(name):
    def decorate(fn):
        GRID_FACTORIES[name] = fn  # repro: noqa[RPR004] sanctioned import-time registration point
        return fn

    return decorate


@register_grid_factory("fixture")
def fixture_factory(scale):
    return []


def build_spec(GridSpec, PolicySpec):
    return GridSpec(
        policies=[PolicySpec(name="p", make=fixture_factory)],
        workloads=[],
    )

