"""``gibbslab`` exports exactly the public names of the modules it imports."""

import types

import gibbslab
from gibbslab import bounds, errors, landscapes, oracles, samplers, specfun


def test_package_names_are_the_union_of_module_all_lists():
    exported = {
        name
        for name, value in vars(gibbslab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = (bounds, errors, landscapes, oracles, samplers, specfun)
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert exported == set(listed)
