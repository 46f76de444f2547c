import numpy as np

from threelevel.matops import dagger, ketbra


class TestAlgebra:
    def test_transition_operator_commutator(self):
        """[|1><3|, |3><1|] expands to |1><1| - |3><3|."""
        a, b = ketbra(1, 3), ketbra(3, 1)
        np.testing.assert_array_equal(a @ b - b @ a,
                                      ketbra(1, 1) - ketbra(3, 3))

    def test_dagger(self):
        a = np.array([[1, 2j, 0], [0, 1, 3], [1j, 0, 2]], dtype=complex)
        np.testing.assert_array_equal(dagger(a), a.conj().T)
