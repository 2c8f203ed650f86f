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

/// The digests of [`digests`] at each level, captured at `7bcdd2a`.
fn pinned(level: SecurityLevel) -> &'static [(&'static str, &'static str, &'static str)] {
    match level {
        SecurityLevel::Toy => &[
            (
                "kgc1.params",
                "6541a1e8fa5c0c2717a101df70b404db344635ccc8770be70730fa1b3305b9b2",
                "d74dc2589f19d794012a18a48ec26e4582ef2e44e415aceac617c68bbb962919",
            ),
            (
                "kgc2.params",
                "2322e05524a6e92803aaf7344a08ce8152a1745c996694357e451ec96ac64632",
                "7538cf18f7876454522b42ac130d366c7d42099c940db2dac89f7a2dca6c992d",
            ),
            (
                "extract.alice",
                "706bcfdefbb14709fe1d36fe4940189131497b0ee729fb880a99b40803b8f8cb",
                "9b68006ce41bc1e39699e7c33934c9351ea7a5ade3ac4ec404f6fd4d73b36d4e",
            ),
            (
                "extract.doctor",
                "627eb9bd52d4f64676866751b63bbdc561b990b821614b6eb1af484d4e6a159d",
                "68ebc1e0cd14205b186d1af281c75a7d9ec36f4fc635ba6f5c0813f2763e8d15",
            ),
            (
                "message",
                "00d0364288574624bae9e64d37faec2c174f75e26a18ccdcad91f189ab01d56a",
                "56a92495856edab632217a22ff1001cbbce9d30bfa2b2407d2e9db89b5a1e41f",
            ),
            (
                "encrypt.emergency",
                "8db1f9c4ae9b7f56442b21ebf4cbb7dd62356db549ddb95d38a248c77dd99f7c",
                "43f8790160284b9b3eea78e5128edfd75edd7cd20a0943be351f751511ee164b",
            ),
            (
                "encrypt.medication",
                "f3ec77af7d0659f9128074a87bc0da1008203a5fa06e61326cb37399c8efacc6",
                "3a62b6869a26cd9874d29f9509a161670b4c61fdd2daf55f76fc99b710f2208b",
            ),
            (
                "pextract",
                "eb8d17a8b29d1f263c8c84ceb34f69f712a53765e9361228a52ed4f14fb02c36",
                "754632ca1a3af2642253746e8099314de9ce9d1b659260bf420d674760f87df6",
            ),
            (
                "preenc",
                "5f44fca81c01bda7bb8ab07b6b906da6fe06fe78a532d0931d6b79032d552f5f",
                "27198b26869865b7624cb7bef5f22f38179ce13da97178720c28e942584cbbb0",
            ),
            (
                "decrypt1",
                "00d0364288574624bae9e64d37faec2c174f75e26a18ccdcad91f189ab01d56a",
                "56a92495856edab632217a22ff1001cbbce9d30bfa2b2407d2e9db89b5a1e41f",
            ),
            (
                "decrypt.delegatee",
                "00d0364288574624bae9e64d37faec2c174f75e26a18ccdcad91f189ab01d56a",
                "56a92495856edab632217a22ff1001cbbce9d30bfa2b2407d2e9db89b5a1e41f",
            ),
            (
                "hybrid",
                "063f91c0ec792afc04a118acd122ae10383cb87f56e2b08fb332c797997f3c19",
                "ef1ee34ad1f9651ffb5d7abc4423aeeed746a8660ac68fd8be50a31b1e3c7e34",
            ),
            (
                "record",
                "3e8cde8c6dbe336fffc37b3b897eaa2d0513c831f4506100da2d01a40f15c7d9",
                "0a02dfa5b8341c504326a4fa52ce1296fc1b569dbcc705c1a59f82824b632520",
            ),
            (
                "bundle",
                "d607562a2fbd1484a8519332f0c797716a13a57a344b6bf1c0568483df597ba1",
                "b13e4d8eab5a83d8ae9d73fdd9f01cf2df5f278b474a2eab26076cc4642f5118",
            ),
            (
                "hash_to_g1.0",
                "d99bbad2687304f95e967f83551129e69c897d53a2e1a9f99437036f748cb0e2",
                "0471f2dcc2d4fae1eff581c7f17c36f831a6caec06ab320087fb9daa94565c12",
            ),
            (
                "hash_to_g1.1",
                "43f2a85ecfe62eff41f5addd9039d72c3ad002b853d7252a6038e20d7c5756a7",
                "60d9dc9e1ed9199a9e4a8dd5c0702c24051b716a4781f8e0d805e20d3fead8e0",
            ),
        ],
        SecurityLevel::Low80 => &[
            (
                "kgc1.params",
                "5d672150adbd8822cdbaf351683d71a5d4d72e3d019b6d27584bc21a0afda0d2",
                "db862044d012c95b1402c9d0707d6863988f0b1d0f2761f8e9ad661961f48cd8",
            ),
            (
                "kgc2.params",
                "71af7f642d4b2969db4ccf6ce661c0433cc00ebc6c9048c2d29cd59229ddacdd",
                "08608683e22a8042ee1feb6da7573552b85c34e24b12e76b623a4e9cd79e9b78",
            ),
            (
                "extract.alice",
                "21611453c9ac994a7b01876246c66c04c0e5b4805702e066a49fc1b69f608268",
                "119c8f1a87d3dc1196756ebbd9cdcce766b2423f480091747c9d18af713aae94",
            ),
            (
                "extract.doctor",
                "c890546d75c40a2613477738df7d323adf10a0867ae6159feb9b834cddec9172",
                "96b87fae89dfd07eb4f5dea2c3ba4a3f477302bd3343eef49e9b1404264f86c0",
            ),
            (
                "message",
                "fd2fcd3e82779025e3260dc418ee574b31292bf0487e333826ab3237bb1c087c",
                "04b336262a77222211973f51d421ab00f93255ffea00b9f7db05263374bf6337",
            ),
            (
                "encrypt.emergency",
                "1f9aa53306739581dedf9884a33a091557be91de74a662e30d7d08ff330cc010",
                "e4aa697e4be8e7b601bee88babe01c6f3e27c3ae8dc7abeae6fa23f13b1b76b6",
            ),
            (
                "encrypt.medication",
                "0b33af3d56db6dfa66fdbac6c46ff65aecf1e911a2f84ccb172eb2689ffab166",
                "f9c5d04aaeef20d90a1d390d8da16e969623b42cbe8633ddc94f3b09d133a177",
            ),
            (
                "pextract",
                "9b85738b413d67f7afe4135e8408233487659fc1eccd65457a9da5863cf240e8",
                "e7e1b6d150075665ed941c659ea7352d0597262e691c2bb432a5883ddf9e70b3",
            ),
            (
                "preenc",
                "da14c5df76b2f54cbab61f7c19a6dd96df5ab27f1eb6483572f5f4acc43c97a6",
                "909192a6e5ced05635ab4417dd6a2ebd3b6194a2d15e7080f72d7799cbca7e90",
            ),
            (
                "decrypt1",
                "fd2fcd3e82779025e3260dc418ee574b31292bf0487e333826ab3237bb1c087c",
                "04b336262a77222211973f51d421ab00f93255ffea00b9f7db05263374bf6337",
            ),
            (
                "decrypt.delegatee",
                "fd2fcd3e82779025e3260dc418ee574b31292bf0487e333826ab3237bb1c087c",
                "04b336262a77222211973f51d421ab00f93255ffea00b9f7db05263374bf6337",
            ),
            (
                "hybrid",
                "516fefbbc308dac101ef213ed5fa339f7bd5470e061ddcec04dc311b2e4d0df3",
                "3908ce928c6f8e35c0b79bb317b800565e345f21e1b1ab3d479831adafe60501",
            ),
            (
                "record",
                "5379bb4ba0df908ae4ba4ac69e40bdc8e5b53ba5e57cfc3757ee1255d2b058d5",
                "99fd0601a1281a80f5fab5cab0c31493fec13862cf6e56130570699b9701da3c",
            ),
            (
                "bundle",
                "64157699873e5f0818c6b325f841c5af0da4ed3c85b901a3be6a3cb5f4758a45",
                "ee6214c8518551c5d2ee5e16ab5847c3cdce89e727223127f9f06778ee8d0f4e",
            ),
            (
                "hash_to_g1.0",
                "f71b44f37759c56dc34ab58e1baa737b16f569d683ce6070bad7a5d9bb623e76",
                "4b0f0552b2b52817be2317cfc7861b35380b4c0d1282403fa15d5ce062740d9d",
            ),
            (
                "hash_to_g1.1",
                "2cb828f4c4d88300afcbb78eaa010dd34fcc60f1c2d1534872f51e3e4fac89da",
                "2dfcdab175c7444bc3dc089f1bd777be7a741d09afdbc10d06b01199a366dfd3",
            ),
        ],
        SecurityLevel::Medium112 => &[
            (
                "kgc1.params",
                "57e3ab1dc656846655ca65aef947f42cdb9824f42858fdc0b9c3fd34cb8d1544",
                "24097da2ab627afc06dba7b39ec783b25b94fc798983a8c7439efcfe68268d7d",
            ),
            (
                "kgc2.params",
                "d3c92a2928051dfc70699da1897c53407e950b18d564ebdc8827edac4d5cfcc6",
                "0ba25093a09b5661d181308b7f3e714b3bf1a66a5304cc020d3d6e3b43b86b77",
            ),
            (
                "extract.alice",
                "2c6d8c5f9e354b4a6165551f1cb9cb3db65c5c0275aedc1075dd0e437ba80d5d",
                "4cc34111648898a32b07b68c3193f6bafd2ef6752ad6570c26befc87be6a0cdd",
            ),
            (
                "extract.doctor",
                "854572ab29839b1cfde52fdbe4a563e2a5d3b44b4358812cfa0474c0eb0d2b6d",
                "a87ab5fa29260c4f59d75aa56d370bb56078a2a56cdf3139fb556979eaffd743",
            ),
            (
                "message",
                "ce9df1d5a3e29e2e5de007751dc1441b281aa946509061dd2f8bb30454ab3140",
                "a193d2382a43e17c0cc0457773bcbf6b1707d4bde997a252680d47237aee1f0a",
            ),
            (
                "encrypt.emergency",
                "e7ffcfd9e0d190ce07bc7c45ec0089f91027f56725fafdd9dabd1c08c2b6d88a",
                "53db7cf912b5524420a2b3aee9215fa1b568b22b03269c6d3d19180442da47cf",
            ),
            (
                "encrypt.medication",
                "23eebab3640bbee2e9db9403a6600656eda883b50b3c449d2b03b042d5de5970",
                "a7262160f5ac192c5cab67af0eb40de34a12311b624087f60e571988fb286461",
            ),
            (
                "pextract",
                "066b9f8433ae8117668e3a0031501584e0f369040997df569fb151325c645680",
                "10f8f8196a252dca38241ab2a1087d35f9683488ae3dacd9ba8ccd0a2146c799",
            ),
            (
                "preenc",
                "46b88bf266e5e521cfeed91587de7d28a720e64334d16c7f3ecd6a66606386d3",
                "d4422a342ebaab27a7b6d2635f06287ae5eee0ccd91459ce852f5f28b135f3c4",
            ),
            (
                "decrypt1",
                "ce9df1d5a3e29e2e5de007751dc1441b281aa946509061dd2f8bb30454ab3140",
                "a193d2382a43e17c0cc0457773bcbf6b1707d4bde997a252680d47237aee1f0a",
            ),
            (
                "decrypt.delegatee",
                "ce9df1d5a3e29e2e5de007751dc1441b281aa946509061dd2f8bb30454ab3140",
                "a193d2382a43e17c0cc0457773bcbf6b1707d4bde997a252680d47237aee1f0a",
            ),
            (
                "hybrid",
                "27d0a96549fee948cf3c8b59a29d4f929fe468ad52e49842b4a0aed609dc99ca",
                "428f5ba95ee02a8c3321c3fe929aeb6e78d8fda904227337c08ba5975d9624ae",
            ),
            (
                "record",
                "c182ec2a58fe3ab3edebc59c0205edb3cac8f217f6ee8f6361ceaaf48bd25c6b",
                "71a7810abd2901c3a87c156802190ae7ddbe71ab38086603f62e8dce39958e5b",
            ),
            (
                "bundle",
                "0cbe9b521e47cf52682561805779ba16a04e61ed706066e64c0d313542750cd4",
                "708362361eb7ea46c3c0b7342f7f6421cbd721d2455a940f677963aa7d67cd6d",
            ),
            (
                "hash_to_g1.0",
                "2f533da1c018ac197e3590d9b9153ea38cba218763fb91a1348e301a5e63ee3e",
                "254685abc4f4b01a21efc86d2404c5099013b9ee0be2caa565675b26f097ad26",
            ),
            (
                "hash_to_g1.1",
                "fbf3dd74ad4ebc919508762276d7461d06f09cfd9acfda624bc42e4f0bbd1c81",
                "df85c82e981c341fc9457a22cb70359da979a32e6b6ea3d101b9ab75e3a7311f",
            ),
        ],
        SecurityLevel::High128 => &[
            (
                "kgc1.params",
                "27bf29646d62d70f9745888a9c0681b9248c8013abb98c082dd71cd4e33947dd",
                "5bbfaa793c89260ae0d19db6bb311afb6efd9dfbc12a72ff8aa0324ac5860820",
            ),
            (
                "kgc2.params",
                "5a19bdf572ebc965c10b5d197b59f0a904282d58f71215314baea760cbe78b52",
                "0e0c03595a86c2b6bd72fa0002dee43d6320160b2e13d5dbadb1ed82ebe4785a",
            ),
            (
                "extract.alice",
                "ad2ae8218e9cba5944b187095f60c753e1e5f7e7b1b0c12e6fc9b0c36f8dfbbd",
                "60fd5218fef178facfb117d2f6d6420a1c8f39970c8054e06f08275c67ecca28",
            ),
            (
                "extract.doctor",
                "d45853b014b5d5e5b4220d98b57249774d198e2a6a07793cfc0c0db362563630",
                "f28fd37ed6e15b8fbcea6ae30c945205671fc2fe73445e2cded22bae416fc135",
            ),
            (
                "message",
                "1ab47c725a7d8a11519fdabba2e7d937f3dcc11bfc341a00c18ce3cc6364f206",
                "f594eddff071d2dde7319a5c137644b25d026a0efd5b3409f31bb903d52e43b9",
            ),
            (
                "encrypt.emergency",
                "09f43815c89d4521c5e28b8e8cc89c59c1a35e07bedc7de346d9caccc2092ea6",
                "5fbe6d8913604ce09a0a3098a3e89a0ba393accf7bd2c6e282174310dc078414",
            ),
            (
                "encrypt.medication",
                "c0e7f3b5169be5567a10d9cffa75b335de68a0f354ba2ac447a4d4ca9e4871cc",
                "57a08d95f361f0e0b3f4e5b9a97554339f64dea101c61246c3448a17887198eb",
            ),
            (
                "pextract",
                "11a7ed80adafaf118b4095872a6ef00881a45f0514e07cdd7b2278fa82e09398",
                "3b6d0d926943dac4eba1e4dfcc87b395b0c79d350fa7728fe62a06846224671d",
            ),
            (
                "preenc",
                "1b97f71c48f7902d1a4a855518ade7101afd4df4ef26d151d2c387efe8c7546d",
                "6c335e74fbf4fc1bcb9661f5a1e8b80ff9dd4f68e1b27250c6127561c67e18a5",
            ),
            (
                "decrypt1",
                "1ab47c725a7d8a11519fdabba2e7d937f3dcc11bfc341a00c18ce3cc6364f206",
                "f594eddff071d2dde7319a5c137644b25d026a0efd5b3409f31bb903d52e43b9",
            ),
            (
                "decrypt.delegatee",
                "1ab47c725a7d8a11519fdabba2e7d937f3dcc11bfc341a00c18ce3cc6364f206",
                "f594eddff071d2dde7319a5c137644b25d026a0efd5b3409f31bb903d52e43b9",
            ),
            (
                "hybrid",
                "3b129a19371fbaed4ce0564e51cd8d4067fc940c9c5dc7ed921843565043f527",
                "f8053dd1b947d4d462a7230777ab7f606f17ef424412e83dee0c15b30b88dfbf",
            ),
            (
                "record",
                "66efa7f3f0c9bdd0093d842dc781bfd8ba88bf4837947042635ad22fb700df8a",
                "c118acc267c730f588572768403add8c9360275429ff0a2bc3e21f572da2cce6",
            ),
            (
                "bundle",
                "711ec67a595e0364b979a606dd02f25acf817bbddd872e5f832372b6ae40a363",
                "3f29faae33e5e8a9eb6eb7024931ae8da6243fc81eaa154033a9083af897bfdb",
            ),
            (
                "hash_to_g1.0",
                "88206466debbc2776b2c5c6e16593c963dfd554cdca4eb1bb89d8928483aea9d",
                "0ff7f36b118d87da3c728970a5e7a04e8735213f68954fb6deeb0aef6c93c5fa",
            ),
            (
                "hash_to_g1.1",
                "79f65dd0a8e6cc865b9667fd6092ff8435f2b6f03c72aaac1e8b2dfbb181b994",
                "2b558c416bb20cfc29f919b9d544c0a3144008c1dad6c097e4d153bba71fb1c0",
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
