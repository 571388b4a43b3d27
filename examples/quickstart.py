"""Quickstart: train a post-variational quantum classifier in ~20 lines.

Builds the paper's Table III setup at reduced size: synthetic coat-vs-shirt
images, max-pooled to 4x4 and angle-encoded (Fig. 7), a 2-local
observable-construction ensemble (Sec. IV.B), and a logistic head.

Run:  python examples/quickstart.py
"""

from repro.api import ExecutionConfig, QuantumFeatureMap
from repro.core import ObservableConstruction, PostVariationalClassifier, VariationalClassifier
from repro.data import binary_coat_vs_shirt
from repro.ml import LogisticRegression, accuracy


def main() -> None:
    # 1. Data: 28x28 synthetic garment images -> pooled 4x4 angle grids.
    split = binary_coat_vs_shirt(train_per_class=100, test_per_class=25)
    print(f"train {split.num_train}, test {split.num_test}, classes {split.class_names}")

    # 2. Strategy: measure every Pauli of locality <= 2 on the encoded state.
    strategy = ObservableConstruction(qubits=4, locality=2)
    print(f"ensemble: {strategy.describe()}")

    # 3. Model: quantum feature map + classical convex head; one fit call.
    #    Execution knobs travel as one ExecutionConfig (repro.api).
    model = PostVariationalClassifier(
        strategy=strategy, config=ExecutionConfig(compile="auto")
    )
    model.fit(split.x_train, split.y_train)
    print(f"post-variational train acc: {model.score(split.x_train, split.y_train):.3f}")
    print(f"post-variational test  acc: {model.score(split.x_test, split.y_test):.3f}")
    print(f"train BCE loss: {model.loss(split.x_train, split.y_train):.4f}")

    # 4. The same split, sklearn-style: QuantumFeatureMap is a fit/transform
    #    transformer, so the quantum features compose with any classical head.
    fmap = QuantumFeatureMap(strategy, config=ExecutionConfig(compile="auto"))
    q_train = fmap.fit_transform(split.x_train)
    q_test = fmap.transform(split.x_test)
    head = LogisticRegression().fit(q_train, split.y_train)
    print(f"feature-map + logistic test acc: "
          f"{accuracy(split.y_test, head.predict(q_test)):.3f}")

    # 5. Compare to the variational baseline (parameter-shift training).
    baseline = VariationalClassifier(epochs=15)
    baseline.fit(split.x_train, split.y_train)
    print(f"variational baseline train acc: {baseline.score(split.x_train, split.y_train):.3f}")


if __name__ == "__main__":
    main()
