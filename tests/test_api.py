import inspect

from wedgebound import quadrature, spectral, trial, variational

# every optional parameter of a public function; a new one is a new knob
# that each caller, test and benchmark must cover
OPTIONAL_PARAMETERS = {("integrate", "breakpoints"), ("solve", "L"), ("solve", "h")}


def test_optional_parameters_are_pinned():
    found = set()
    for module in (trial, quadrature, variational, spectral):
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add((name, param.name))
    assert found == OPTIONAL_PARAMETERS
