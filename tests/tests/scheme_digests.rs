//! The scheme's outputs are fixed points of the code that computes them.
//! `param_digests` pins the parameter sets; this suite pins every artifact
//! one seeded run of the whole scheme produces (`tibpre_tests::fixture`):
//! KGC setup, Extract, Encrypt under two types, Pextract, Preenc, Decrypt1,
//! the delegatee's decryption, a hybrid record, its stored form, its
//! disclosure bundle, and `hash_to_g1` of fixed strings.
//!
//! Each artifact is pinned in two halves, so a change can say which one it
//! moved:
//! - its *value*: `to_bytes` for group elements and private keys, and the
//!   uncompressed v0 layout (whose group elements are `to_bytes`) for
//!   composites;
//! - its *v1 wire bytes*, envelope included.
//!
//! A faster Miller loop, final exponentiation or scalar walk must move
//! neither; a new written encoding moves only the second.  The toy level is
//! always checked; `TIBPRE_TEST_LEVELS` adds the others.

use tibpre_hash::Sha256;
use tibpre_pairing::SecurityLevel;
use tibpre_tests::fixture::{World, PLAINTEXT};
use tibpre_tests::test_levels;
use tibpre_wire::{encode_bare, WireEncode, WireVersion};

fn hex_digest(bytes: &[u8]) -> String {
    Sha256::digest(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// `(name, value digest, v1 wire digest)` of every artifact of `world`.
fn digests(world: &World) -> Vec<(String, String, String)> {
    fn uncompressed<T: WireEncode>(value: &T) -> Vec<u8> {
        encode_bare(value, WireVersion::V0)
    }
    fn row<T: WireEncode>(name: &str, value: Vec<u8>, wire: &T) -> (String, String, String) {
        let wire = wire.to_wire_bytes_versioned(WireVersion::V1);
        (name.to_string(), hex_digest(&value), hex_digest(&wire))
    }
    let w = world;
    let mut rows = vec![
        row("kgc1.params", uncompressed(&w.patients), &w.patients),
        row("kgc2.params", uncompressed(&w.providers), &w.providers),
        row("extract.alice", w.alice_key.to_bytes(), &w.alice_key),
        row("extract.doctor", w.doctor_key.to_bytes(), &w.doctor_key),
        row("message", w.message.to_bytes(), &w.message),
        row("encrypt.emergency", uncompressed(&w.typed[0]), &w.typed[0]),
        row("encrypt.medication", uncompressed(&w.typed[1]), &w.typed[1]),
        row("pextract", uncompressed(&w.rekey), &w.rekey),
        row("preenc", uncompressed(&w.reencrypted), &w.reencrypted),
        row(
            "decrypt1",
            w.decrypted_by_owner.to_bytes(),
            &w.decrypted_by_owner,
        ),
        row(
            "decrypt.delegatee",
            w.decrypted_by_delegatee.to_bytes(),
            &w.decrypted_by_delegatee,
        ),
        row("hybrid", uncompressed(&w.hybrid), &w.hybrid),
        row("record", uncompressed(&w.record), &w.record),
        row("bundle", uncompressed(&w.bundle), &w.bundle),
    ];
    for (i, point) in w.hashes.iter().enumerate() {
        rows.push(row(&format!("hash_to_g1.{i}"), point.to_bytes(), point));
    }
    rows
}

/// The digests of [`digests`] at each level, captured at `7bcdd2a`.  The
/// wire half of every row was re-pinned when the writers stopped
/// compressing group elements (a `G1` point carries `y`, a `Gt` element
/// its torus coordinate); no value digest moved.
fn pinned(level: SecurityLevel) -> &'static [(&'static str, &'static str, &'static str)] {
    match level {
        SecurityLevel::Toy => &[
            (
                "kgc1.params",
                "6541a1e8fa5c0c2717a101df70b404db344635ccc8770be70730fa1b3305b9b2",
                "0d64bb9dab52f5a3bf2de310623f100b1b8660e68441eb60fbf395d3514f022a",
            ),
            (
                "kgc2.params",
                "2322e05524a6e92803aaf7344a08ce8152a1745c996694357e451ec96ac64632",
                "1e22ca9803129f51657f8b23ff4748c2dd4e8179cf0ae4d9cb5d070008504f7d",
            ),
            (
                "extract.alice",
                "706bcfdefbb14709fe1d36fe4940189131497b0ee729fb880a99b40803b8f8cb",
                "c0bde1097ff96210219d58efa810ef6467ae2753071079bdd9c0b08498189b38",
            ),
            (
                "extract.doctor",
                "627eb9bd52d4f64676866751b63bbdc561b990b821614b6eb1af484d4e6a159d",
                "7d27b9207b6fcc5e465e33f95d38adb08e68eba8558742f1ee86bd3948ffa011",
            ),
            (
                "message",
                "00d0364288574624bae9e64d37faec2c174f75e26a18ccdcad91f189ab01d56a",
                "c708252d9123888179ba2bc7e8025e45f820fbd9bd90f5b204c1c52f166ef0d7",
            ),
            (
                "encrypt.emergency",
                "8db1f9c4ae9b7f56442b21ebf4cbb7dd62356db549ddb95d38a248c77dd99f7c",
                "7c947125fe9ae37e8959448e785fda24571bb75e7cdbc23c7e23b8a3cec377a0",
            ),
            (
                "encrypt.medication",
                "f3ec77af7d0659f9128074a87bc0da1008203a5fa06e61326cb37399c8efacc6",
                "15d2f914b4affc99be08c2661025fbd857124952466d23e43519bb8d952467c6",
            ),
            (
                "pextract",
                "eb8d17a8b29d1f263c8c84ceb34f69f712a53765e9361228a52ed4f14fb02c36",
                "d1f328c2266e09881a69f0d33a5d4fc24914e929b9b4b3db3f3bacb920923ed0",
            ),
            (
                "preenc",
                "5f44fca81c01bda7bb8ab07b6b906da6fe06fe78a532d0931d6b79032d552f5f",
                "46588d8ec62c95cfe5042ef40dfbf453083374599d23b1a3d6020cad59ddb870",
            ),
            (
                "decrypt1",
                "00d0364288574624bae9e64d37faec2c174f75e26a18ccdcad91f189ab01d56a",
                "c708252d9123888179ba2bc7e8025e45f820fbd9bd90f5b204c1c52f166ef0d7",
            ),
            (
                "decrypt.delegatee",
                "00d0364288574624bae9e64d37faec2c174f75e26a18ccdcad91f189ab01d56a",
                "c708252d9123888179ba2bc7e8025e45f820fbd9bd90f5b204c1c52f166ef0d7",
            ),
            (
                "hybrid",
                "063f91c0ec792afc04a118acd122ae10383cb87f56e2b08fb332c797997f3c19",
                "2bdc82494cabd738ea8a6878b2f3996e6be9f5b308a0dd8c1cf378ab96914c59",
            ),
            (
                "record",
                "3e8cde8c6dbe336fffc37b3b897eaa2d0513c831f4506100da2d01a40f15c7d9",
                "bd745420a8f2a08f4db1933c4083a31c321ff13dc4a2288cd09f9b42f7bd5810",
            ),
            (
                "bundle",
                "d607562a2fbd1484a8519332f0c797716a13a57a344b6bf1c0568483df597ba1",
                "ae90331b92243c967b622f54a7ebb5f5d1697a1339ab35105f8fe799e0087938",
            ),
            (
                "hash_to_g1.0",
                "d99bbad2687304f95e967f83551129e69c897d53a2e1a9f99437036f748cb0e2",
                "6a97bcca4f86022061b39431a021b63241160fec8bf9def3dc0dce5eab5273ae",
            ),
            (
                "hash_to_g1.1",
                "43f2a85ecfe62eff41f5addd9039d72c3ad002b853d7252a6038e20d7c5756a7",
                "a47c6f2b70662944dbe279af67ba57e9e089ea2308bbbd8272d4360b43c37742",
            ),
        ],
        SecurityLevel::Low80 => &[
            (
                "kgc1.params",
                "5d672150adbd8822cdbaf351683d71a5d4d72e3d019b6d27584bc21a0afda0d2",
                "d44faa42813dc52a427b9c8213c8808d5fc6c246190dc23f5eb108b02ef29ef2",
            ),
            (
                "kgc2.params",
                "71af7f642d4b2969db4ccf6ce661c0433cc00ebc6c9048c2d29cd59229ddacdd",
                "8ad777c4c2d3b60e11f76417ab04371f91050358ac31fa1a56e380ed70ab920f",
            ),
            (
                "extract.alice",
                "21611453c9ac994a7b01876246c66c04c0e5b4805702e066a49fc1b69f608268",
                "6289fb634db48c208e1d55031b4da98c316718840ab51685868522be4cebee96",
            ),
            (
                "extract.doctor",
                "c890546d75c40a2613477738df7d323adf10a0867ae6159feb9b834cddec9172",
                "d336ff4c559211a9bd4a0578f1e0c97dc59119677d6456ab22ed9ae1a6ef3475",
            ),
            (
                "message",
                "fd2fcd3e82779025e3260dc418ee574b31292bf0487e333826ab3237bb1c087c",
                "22e7f0ce4c1ad4e75dedb706142aed270d570ad38cfc49039a38d1a756ac6e60",
            ),
            (
                "encrypt.emergency",
                "1f9aa53306739581dedf9884a33a091557be91de74a662e30d7d08ff330cc010",
                "e16caeca42e534f0f27fe9c54a8f1cc7dcb580840a7c42b33c3e1ef20aaa29b6",
            ),
            (
                "encrypt.medication",
                "0b33af3d56db6dfa66fdbac6c46ff65aecf1e911a2f84ccb172eb2689ffab166",
                "b9e8047630deb8a217d965779e1de81be9c4df391d029832987210867ef849ca",
            ),
            (
                "pextract",
                "9b85738b413d67f7afe4135e8408233487659fc1eccd65457a9da5863cf240e8",
                "6ef9b47b11189b1793cfe11047104358f4efd98228b63257bb08f0944b787883",
            ),
            (
                "preenc",
                "da14c5df76b2f54cbab61f7c19a6dd96df5ab27f1eb6483572f5f4acc43c97a6",
                "6a4b25368b2862afc14a6b31dbd5af99f9ccfd0942f42a8d44b816d762152617",
            ),
            (
                "decrypt1",
                "fd2fcd3e82779025e3260dc418ee574b31292bf0487e333826ab3237bb1c087c",
                "22e7f0ce4c1ad4e75dedb706142aed270d570ad38cfc49039a38d1a756ac6e60",
            ),
            (
                "decrypt.delegatee",
                "fd2fcd3e82779025e3260dc418ee574b31292bf0487e333826ab3237bb1c087c",
                "22e7f0ce4c1ad4e75dedb706142aed270d570ad38cfc49039a38d1a756ac6e60",
            ),
            (
                "hybrid",
                "516fefbbc308dac101ef213ed5fa339f7bd5470e061ddcec04dc311b2e4d0df3",
                "80d7a6588b371ee776c8197bdd7d60040e44cca2619a5b76a6a457c4027826e0",
            ),
            (
                "record",
                "5379bb4ba0df908ae4ba4ac69e40bdc8e5b53ba5e57cfc3757ee1255d2b058d5",
                "05f88fa0b6053742cd30f3fe4c60d9592042e5af717324f08e11ff322600f551",
            ),
            (
                "bundle",
                "64157699873e5f0818c6b325f841c5af0da4ed3c85b901a3be6a3cb5f4758a45",
                "ae97e787e6e4dc6625251f66ff98cc98ea8527a1eed9ea6526d8cc095b88be32",
            ),
            (
                "hash_to_g1.0",
                "f71b44f37759c56dc34ab58e1baa737b16f569d683ce6070bad7a5d9bb623e76",
                "19bd548469325c594588b54cbde680b242c9c3eb9bb74cdc8b48c05079e727cf",
            ),
            (
                "hash_to_g1.1",
                "2cb828f4c4d88300afcbb78eaa010dd34fcc60f1c2d1534872f51e3e4fac89da",
                "26dddadbcb47a6b88f8bbff1d8b1536e03fd0ae745a70277f3e3def36efd24ab",
            ),
        ],
        SecurityLevel::Medium112 => &[
            (
                "kgc1.params",
                "57e3ab1dc656846655ca65aef947f42cdb9824f42858fdc0b9c3fd34cb8d1544",
                "6a514d5546e23f9868bc534d08fb60f1995251b129691d816653f2abe227fb32",
            ),
            (
                "kgc2.params",
                "d3c92a2928051dfc70699da1897c53407e950b18d564ebdc8827edac4d5cfcc6",
                "74bbcd67a29be137964bb4315ea03afcb2543e40b45b15d394d804d3b14273e7",
            ),
            (
                "extract.alice",
                "2c6d8c5f9e354b4a6165551f1cb9cb3db65c5c0275aedc1075dd0e437ba80d5d",
                "921b3d26ce02e913d9fbc34b21cbdc1f170f6974f0c11ec8a3d013e8e9aeff72",
            ),
            (
                "extract.doctor",
                "854572ab29839b1cfde52fdbe4a563e2a5d3b44b4358812cfa0474c0eb0d2b6d",
                "5d7031fdc7054fb56ff962a4613fa4b23538fb344738b71c86090083a2736a5d",
            ),
            (
                "message",
                "ce9df1d5a3e29e2e5de007751dc1441b281aa946509061dd2f8bb30454ab3140",
                "59d61b1cd15bae3e31c41e3dd13a5d1c9bfdb262f8f1ac4244347b6374715fbf",
            ),
            (
                "encrypt.emergency",
                "e7ffcfd9e0d190ce07bc7c45ec0089f91027f56725fafdd9dabd1c08c2b6d88a",
                "72a3edb4d6c1d1187f5cd749e3a925fc05e688b240225f5db5d43b2b12de508c",
            ),
            (
                "encrypt.medication",
                "23eebab3640bbee2e9db9403a6600656eda883b50b3c449d2b03b042d5de5970",
                "fd692a9125df9ee6f4c0b6e2650f5d64b596853acf912f866f08f5ae4747bcb5",
            ),
            (
                "pextract",
                "066b9f8433ae8117668e3a0031501584e0f369040997df569fb151325c645680",
                "40bd2ea30058d4ef7b80f9e2d3fe9b31765eeaf6a179733f58484f2b95909dc8",
            ),
            (
                "preenc",
                "46b88bf266e5e521cfeed91587de7d28a720e64334d16c7f3ecd6a66606386d3",
                "75297deb71d24a18b3f8227ae3e6365d20044c3076e86a4ce48d5958328efdb6",
            ),
            (
                "decrypt1",
                "ce9df1d5a3e29e2e5de007751dc1441b281aa946509061dd2f8bb30454ab3140",
                "59d61b1cd15bae3e31c41e3dd13a5d1c9bfdb262f8f1ac4244347b6374715fbf",
            ),
            (
                "decrypt.delegatee",
                "ce9df1d5a3e29e2e5de007751dc1441b281aa946509061dd2f8bb30454ab3140",
                "59d61b1cd15bae3e31c41e3dd13a5d1c9bfdb262f8f1ac4244347b6374715fbf",
            ),
            (
                "hybrid",
                "27d0a96549fee948cf3c8b59a29d4f929fe468ad52e49842b4a0aed609dc99ca",
                "52db55995e2ed778b1e98d691ab7f3611ca61494e897d306d366a7d0c0dc47df",
            ),
            (
                "record",
                "c182ec2a58fe3ab3edebc59c0205edb3cac8f217f6ee8f6361ceaaf48bd25c6b",
                "b69e71ff9398e9ee418cdd403f9c148b7492b180a95aa011c2f333cdf12103f2",
            ),
            (
                "bundle",
                "0cbe9b521e47cf52682561805779ba16a04e61ed706066e64c0d313542750cd4",
                "d77cb73d96cd419cc685dbe2f69d4b5942ec58017baf82dbb43e368e98c397ef",
            ),
            (
                "hash_to_g1.0",
                "2f533da1c018ac197e3590d9b9153ea38cba218763fb91a1348e301a5e63ee3e",
                "2558e35be26c07728ad3b47c5b10db384093901d83b2f1de1d7c2017e0bdc364",
            ),
            (
                "hash_to_g1.1",
                "fbf3dd74ad4ebc919508762276d7461d06f09cfd9acfda624bc42e4f0bbd1c81",
                "559e2c9c94afa499aa6f4b915698ff0047cf4ca39757f9de1ae76de54456eb21",
            ),
        ],
        SecurityLevel::High128 => &[
            (
                "kgc1.params",
                "27bf29646d62d70f9745888a9c0681b9248c8013abb98c082dd71cd4e33947dd",
                "cc9d8362b371ebfd60587d24da04d77434fec60f34993d7f6b6f7be5e7c16f5f",
            ),
            (
                "kgc2.params",
                "5a19bdf572ebc965c10b5d197b59f0a904282d58f71215314baea760cbe78b52",
                "0527cf32f693ff9dc28eaf1508a92f56efd3434c6814aaeda4ffd706e6fb4623",
            ),
            (
                "extract.alice",
                "ad2ae8218e9cba5944b187095f60c753e1e5f7e7b1b0c12e6fc9b0c36f8dfbbd",
                "6d1a4a69286c387b741dc10412984de64fd8731b5967a3436c06fb738879b865",
            ),
            (
                "extract.doctor",
                "d45853b014b5d5e5b4220d98b57249774d198e2a6a07793cfc0c0db362563630",
                "3ed9754f00fbd0ed1f76345963e3db9d1237afda6d3761975a31ba17b0007ef3",
            ),
            (
                "message",
                "1ab47c725a7d8a11519fdabba2e7d937f3dcc11bfc341a00c18ce3cc6364f206",
                "f37c1c099d1624e1d5d803d1eaad51eaf7f0285cdce5453c438666b36103b7f5",
            ),
            (
                "encrypt.emergency",
                "09f43815c89d4521c5e28b8e8cc89c59c1a35e07bedc7de346d9caccc2092ea6",
                "ec1c62bba758910ac79f3d9da8b7d2c057d7dc68cfb9db213467af82ad8458f2",
            ),
            (
                "encrypt.medication",
                "c0e7f3b5169be5567a10d9cffa75b335de68a0f354ba2ac447a4d4ca9e4871cc",
                "941c9f0d0d8913428f0a0513a96011416374d4596a47ed7a43017129ebca6a0d",
            ),
            (
                "pextract",
                "11a7ed80adafaf118b4095872a6ef00881a45f0514e07cdd7b2278fa82e09398",
                "db520715a48e86fa2568ed970e2c18b0b5d05134efd24a98d85c69326c553d46",
            ),
            (
                "preenc",
                "1b97f71c48f7902d1a4a855518ade7101afd4df4ef26d151d2c387efe8c7546d",
                "d50cd2907055ea45210ee67313fd219af5b8fdf91c02a04404bef19d60a428eb",
            ),
            (
                "decrypt1",
                "1ab47c725a7d8a11519fdabba2e7d937f3dcc11bfc341a00c18ce3cc6364f206",
                "f37c1c099d1624e1d5d803d1eaad51eaf7f0285cdce5453c438666b36103b7f5",
            ),
            (
                "decrypt.delegatee",
                "1ab47c725a7d8a11519fdabba2e7d937f3dcc11bfc341a00c18ce3cc6364f206",
                "f37c1c099d1624e1d5d803d1eaad51eaf7f0285cdce5453c438666b36103b7f5",
            ),
            (
                "hybrid",
                "3b129a19371fbaed4ce0564e51cd8d4067fc940c9c5dc7ed921843565043f527",
                "32e313ba189319ae22cd8356ae90ad97bca35d503a2c2397713a5fe511c023f2",
            ),
            (
                "record",
                "66efa7f3f0c9bdd0093d842dc781bfd8ba88bf4837947042635ad22fb700df8a",
                "b50e3a25005d4464b6a8dfbfa42896f51a54e417372cc85ba606975c18bc4525",
            ),
            (
                "bundle",
                "711ec67a595e0364b979a606dd02f25acf817bbddd872e5f832372b6ae40a363",
                "ba6b13c6113a1a3b1a593a9f1d7c40543edd5d6e76763ee5503bc0d17efefd43",
            ),
            (
                "hash_to_g1.0",
                "88206466debbc2776b2c5c6e16593c963dfd554cdca4eb1bb89d8928483aea9d",
                "1d08f1a99fad6791b1cbb1590fbe7547e8c9ee1f97e194cce3536d6fe97a37e6",
            ),
            (
                "hash_to_g1.1",
                "79f65dd0a8e6cc865b9667fd6092ff8435f2b6f03c72aaac1e8b2dfbb181b994",
                "cc80aae6d79787966d207104fc1b594f65a59153f405ed03afc4808dc49a7e30",
            ),
        ],
    }
}

#[test]
fn every_scheme_artifact_matches_its_pinned_digests() {
    for params in test_levels() {
        let level = params.level();
        let world = World::new(params);
        // The run is a working run of the scheme, not just a byte source.
        assert_eq!(world.decrypted_by_owner, world.message, "{level:?}");
        assert_eq!(world.decrypted_by_delegatee, world.message, "{level:?}");
        assert_eq!(world.opened, PLAINTEXT, "{level:?}");

        let got = digests(&world);
        let table: String = got
            .iter()
            .map(|(n, v, w)| format!("            (\"{n}\", \"{v}\", \"{w}\"),\n"))
            .collect();
        let want = pinned(level);
        assert_eq!(got.len(), want.len(), "{level:?}: got\n{table}");
        for ((name, value, wire), (want_name, want_value, want_wire)) in got.iter().zip(want) {
            assert_eq!(name, want_name, "{level:?}");
            assert_eq!(value, want_value, "{name} value at {level:?}");
            assert_eq!(wire, want_wire, "{name} wire bytes at {level:?}");
        }
    }
}
